#pragma once
// In-process layer timings for the traced run: each layer's public entry
// points, called from the harness on the workload's own designs, outside
// the load phase. Every function adds its metrics to `m`.

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "core/fitted_model.h"

namespace noodlebench {

/// verilog.lex_us/parse_us, graph.build_us/sketch_us/features_us,
/// feat.tabular_us/featurize_us/unattributed_share, lint.run_us.
void time_front_end(std::span<const std::string> sources, Metrics& m);

/// core.infer_us (scan_many at batch 16 on 1 thread, per design) and
/// core.scan_many_speedup (nproc threads against 1).
void time_core(const noodle::core::FittedModel& model,
               std::span<const std::string> sources, Metrics& m);

/// fit.total_s: NoodleDetector::fit_default() with noodled's training
/// config; fit.featurize_s/gan_s/early_s/late_s: its phases, replayed one by
/// one; fit.unattributed_share: the share of fit.total_s they leave out.
/// Warns when the replayed model's digest differs from the detector's or
/// from `daemon_digest` (the snapshot noodled fitted).
void time_fit(std::uint64_t daemon_digest, Metrics& m);

/// net.parse_line_ns and net.verdict_line_ns over the workload's lines.
void time_protocol(const noodle::core::FittedModel& model,
                   std::span<const std::string> sources, Metrics& m);

/// serve.snapshot_load_ms: FittedModel::load of the workload's snapshot.
void time_snapshot_load(const std::filesystem::path& snapshot, Metrics& m);

/// The disk tier on `directory`: open (serve.disk_startup_ms), one lookup
/// per source (serve.disk_lookup_us), store the misses and flush
/// (serve.disk_flush_ms). With `populate` the directory starts empty and
/// every source is stored and flushed first (the flush is the one timed).
void time_disk_tier(const noodle::core::FittedModel& model,
                    const std::filesystem::path& directory,
                    std::span<const std::string> sources, bool populate, Metrics& m);

struct ReplayResult {
  std::vector<double> latency_ms;  ///< per request, from its due time
  double submit_hit_us = 0.0;      ///< median submit_async on a warm cache
};

/// Replays an open-loop schedule in-process through DetectionService::
/// submit_async (no socket) with the daemon's service config. `warm` is
/// submitted (and awaited) first. A non-zero `window` replays closed-loop
/// instead: at most `window` requests pending, `schedule` ignored.
ReplayResult replay_inproc(const std::filesystem::path& snapshot,
                           const std::filesystem::path& disk_dir, std::size_t workers,
                           const std::vector<std::string>& warm,
                           const std::vector<std::int64_t>& schedule,
                           const std::vector<const std::string*>& sources,
                           std::size_t window);

}  // namespace noodlebench
