#include "serve/service.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "data/dataset.h"
#include "feat/featurize.h"
#include "util/binary_io.h"

namespace noodle::serve {

// ---------------------------------------------------------------------------
// DetectionService
// ---------------------------------------------------------------------------

namespace {

std::shared_ptr<ModelRegistry> require_registry(std::shared_ptr<ModelRegistry> registry) {
  if (!registry) {
    throw std::invalid_argument("DetectionService: registry must not be null");
  }
  return registry;
}

ServiceConfig validate(ServiceConfig config) {
  if (config.max_batch == 0) {
    throw std::invalid_argument("DetectionService: max_batch must be positive");
  }
  if (config.workers == 0) {
    throw std::invalid_argument("DetectionService: workers must be positive");
  }
  return config;
}

std::shared_ptr<ModelRegistry> single_model_registry(const std::filesystem::path& snapshot) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->reload_from(kDefaultModelName, snapshot);
  return registry;
}

/// Sums the counters of `cells` (pointers to DetectionService::StatsCell)
/// into one view, without a lock. Every outcome counter is loaded before
/// any requests counter: outcomes are counted after their request's
/// requests++, and Counter::inc/value are release/acquire, so a view that
/// sees an outcome also sees the request behind it — it can never report
/// more outcomes than requests.
template <typename CellPtrs>
ServiceStats view_of(const CellPtrs& cells) {
  ServiceStats s;
  for (const auto* cell : cells) {
    s.cache_hits += cell->cache_hits->value();
    s.disk_hits += cell->disk_hits->value();
    s.scans += cell->scans->value();
    s.parse_failures += cell->parse_failures->value();
    s.model_misses += cell->model_misses->value();
    s.deadline_timeouts += cell->deadline_timeouts->value();
    s.batches += cell->batches->value();
    s.scan_micros += cell->scan_micros->value();
    s.lint_runs += cell->lint_runs->value();
    for (std::size_t rule = 0; rule < lint::kRuleCount; ++rule) {
      const obs::Counter* findings =
          cell->lint_by_rule[rule].load(std::memory_order_acquire);
      if (findings != nullptr) s.lint_by_rule[rule] += findings->value();
    }
    s.max_batch_size =
        std::max(s.max_batch_size, cell->max_batch_size.load(std::memory_order_relaxed));
  }
  for (const std::uint64_t findings : s.lint_by_rule) s.lint_findings += findings;
  for (const auto* cell : cells) s.requests += cell->requests->value();
  return s;
}

}  // namespace

DetectionService::DetectionService(std::shared_ptr<ModelRegistry> registry,
                                   std::string default_model, ServiceConfig config)
    : registry_(require_registry(std::move(registry))),
      default_model_(std::move(default_model)),
      config_(validate(config)),
      lint_(config_.lint),
      pool_(config_.workers),
      dispatcher_([this] { dispatcher_loop(); }) {
  // Runs before any request can exist (submit() requires a constructed
  // service), so the hot paths always see registered metric handles.
  register_metrics();
  pool_.attach_gauges(&pool_queue_depth_->cell(), &pool_in_flight_->cell());
  if (!config_.disk_cache.directory.empty()) {
    // After register_metrics() and before any request: the disk tier scans
    // its directory here, off the serving path (there is none yet).
    disk_cache_ = std::make_unique<PersistentVerdictCache>(config_.disk_cache);
  }
}

void DetectionService::register_metrics() {
  static constexpr std::array<const char*, kStageCount> kStageNames = {
      "queue_wait", "featurize", "infer", "lint", "cache_lookup", "total"};
  for (std::size_t stage = 0; stage < kStageCount; ++stage) {
    stage_hist_[stage] = &metrics_.histogram(
        "noodle_stage_duration_seconds",
        "Per-stage request latency; infer is recorded once per batch.",
        {{"stage", kStageNames[stage]}});
  }
  static constexpr std::array<const char*,
                              static_cast<std::size_t>(CacheProbe::kProbeCount)>
      kProbeNames = {"hit", "disk_hit", "miss_absent", "miss_collision",
                     "miss_lint_state", "miss_bypass"};
  for (std::size_t probe = 0; probe < probe_counters_.size(); ++probe) {
    probe_counters_[probe] = &metrics_.counter(
        "noodle_cache_probes_total",
        "Submit-time verdict-cache probes by outcome; outcomes sum to requests.",
        {{"outcome", kProbeNames[probe]}});
  }
  pool_queue_depth_ = &metrics_.gauge("noodle_pool_queue_depth",
                                      "Batches queued on the scan thread pool.");
  pool_in_flight_ = &metrics_.gauge("noodle_pool_inflight",
                                    "Batches executing on the scan thread pool.");
}

DetectionService::DetectionService(const std::filesystem::path& snapshot,
                                   ServiceConfig config)
    : DetectionService(single_model_registry(snapshot), kDefaultModelName, config) {}

DetectionService::~DetectionService() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  dispatcher_.join();
  // pool_ destruction drains any batches still in flight; promises for
  // requests queued after stopping_ never exist because submit() rejects
  // them up front.
}

DetectionService::StatsCell& DetectionService::stats_cell(const std::string& model) {
  std::lock_guard<std::mutex> lock(cells_mutex_);
  if (const auto it = cells_.find(model); it != cells_.end()) return it->second;
  // Bound the map against attacker-chosen names: overflow names share one
  // cell, and a given name maps to the same cell for its lifetime (the map
  // only grows), so per-cell invariants survive.
  const std::string name =
      cells_.size() < kMaxTrackedModels ? model : std::string(kOverflowCell);
  const auto [it, created] = cells_.try_emplace(name);
  StatsCell& cell = it->second;
  if (created) {
    const auto counter = [&](const char* metric, const char* help) {
      return &metrics_.counter(metric, help, {{"model", name}});
    };
    cell.model = name;
    cell.requests = counter("noodle_requests_total", "submit() calls.");
    cell.cache_hits = counter("noodle_cache_hits_total",
                              "Requests answered from the LRU verdict cache.");
    cell.disk_hits = counter("noodle_disk_hits_total",
                             "Requests answered from the persistent disk cache tier.");
    cell.scans = counter("noodle_scans_total", "Verdicts computed by a detector.");
    cell.parse_failures =
        counter("noodle_parse_failures_total", "Requests rejected with a parse error.");
    cell.model_misses = counter("noodle_model_misses_total",
                                "Requests naming an unknown model/version.");
    cell.deadline_timeouts =
        counter("noodle_deadline_timeouts_total",
                "Requests failed with DeadlineError before being scanned.");
    cell.batches =
        counter("noodle_batches_total", "Single-generation batch groups dispatched.");
    cell.scan_micros = counter("noodle_scan_busy_microseconds_total",
                               "Wall time spent inside detector batch scans.");
    cell.lint_runs =
        counter("noodle_lint_runs_total", "Sources the static-analysis pass covered.");
  }
  return cell;
}

std::future<core::DetectionReport> DetectionService::submit(std::string verilog_source) {
  return submit_request(ModelSpec{default_model_, 0}, std::move(verilog_source), {}, {});
}

std::future<core::DetectionReport> DetectionService::submit(const std::string& model_spec,
                                                            std::string verilog_source) {
  return submit_request(parse_model_spec(model_spec), std::move(verilog_source), {}, {});
}

std::future<core::DetectionReport> DetectionService::submit(const std::string& model_spec,
                                                            std::string verilog_source,
                                                            SubmitOptions options) {
  return submit_request(parse_model_spec(model_spec), std::move(verilog_source), options,
                        {});
}

void DetectionService::submit_async(std::string verilog_source, SubmitOptions options,
                                    CompletionFn on_complete) {
  submit_request(ModelSpec{default_model_, 0}, std::move(verilog_source), options,
                 std::move(on_complete));
}

void DetectionService::submit_async(const std::string& model_spec,
                                    std::string verilog_source, SubmitOptions options,
                                    CompletionFn on_complete) {
  submit_request(parse_model_spec(model_spec), std::move(verilog_source), options,
                 std::move(on_complete));
}

std::future<core::DetectionReport> DetectionService::submit_request(
    ModelSpec spec, std::string source, SubmitOptions options,
    CompletionFn on_complete) {
  const std::uint64_t submit_nanos = obs::now_nanos();
  const std::uint64_t trace_id = obs::next_trace_id();
  const std::uint64_t hash = util::fnv1a64(source);
  // Sampling the lint flag here (not at dispatch) makes set_lint() order
  // deterministically with submission: a toggle affects exactly the
  // requests submitted after it, however the dispatcher batches them.
  const bool want_lint = lint_.load(std::memory_order_relaxed);
  StatsCell& cell = stats_cell(spec.name);
  cell.requests->inc();

  // Cache probe against the generation the spec resolves to right now; the
  // generation id in the key means a reload in between can only cause a
  // miss (and a fresh scan), never a cross-generation verdict.
  CacheProbe probe = CacheProbe::kMissBypass;
  core::DetectionReport cached;
  std::uint64_t lookup_micros = 0;
  if (ModelHandle handle = registry_->try_resolve(spec)) {
    obs::TraceSpan lookup_span(stage_hist_[kStageCacheLookup], &lookup_micros);
    probe = cache_lookup(CacheKey{handle->id(), hash}, source, want_lint, cached);
    if (probe != CacheProbe::kHit && disk_cache_ != nullptr && !want_lint) {
      // Disk tier: consulted only on an in-memory miss, where the
      // alternative is a full featurize+scan. One synchronous record read;
      // lookup() verifies checksum AND full source bytes, and never throws.
      // Lint-on requests skip it — only lint-off verdicts persist.
      const PersistentVerdictCache::Key disk_key{
          feat::kFeatureVersion, handle->model().content_digest(), hash};
      if (disk_cache_->lookup(disk_key, source, cached)) {
        cached.served_by = handle->label();
        // Promote into the in-memory tier: the next probe for this source
        // hits the LRU without touching the disk again.
        cache_store(CacheKey{handle->id(), hash}, source, cached);
        probe = CacheProbe::kDiskHit;
      }
    }
  }
  // Exactly one probe outcome per request: hits and every miss reason
  // (including lint-state mismatches) sum to requests, so `!lint` toggles
  // can never skew the hit/miss accounting (see tests/test_serve.cpp).
  probe_counters_[static_cast<std::size_t>(probe)]->inc();
  if (probe == CacheProbe::kHit || probe == CacheProbe::kDiskHit) {
    // The hit is recorded only now — after the probe validated the source
    // bytes AND the entry's lint state — never before.
    (probe == CacheProbe::kHit ? cell.cache_hits : cell.disk_hits)->inc();
    cached.timing = core::RequestTiming{};
    cached.timing.trace_id = trace_id;
    cached.timing.from_cache = true;
    cached.timing.cache_lookup_us = lookup_micros;
    const std::uint64_t total_nanos = obs::now_nanos() - submit_nanos;
    cached.timing.total_us = total_nanos / 1000;
    stage_hist_[kStageTotal]->record(total_nanos);
    std::promise<core::DetectionReport> ready;
    ready.set_value(std::move(cached));
    if (on_complete) {
      // Cache hits complete synchronously on the submitting thread — the
      // documented submit_async contract (a reactor caller's handler runs
      // inline, exactly like a future that is ready on return).
      on_complete(ready.get_future());
      return {};
    }
    return ready.get_future();
  }
  // An unresolvable spec is not failed here: the batch-time resolve is
  // authoritative (the model may be published microseconds from now).

  Request request;
  request.spec = std::move(spec);
  request.cell = &cell;
  request.source = std::move(source);
  request.key = hash;
  request.lint = want_lint;
  request.submit_nanos = submit_nanos;
  if (options.deadline.count() > 0) {
    request.deadline_nanos =
        submit_nanos + static_cast<std::uint64_t>(
                           std::chrono::duration_cast<std::chrono::nanoseconds>(
                               options.deadline)
                               .count());
  }
  request.timing.trace_id = trace_id;
  request.timing.cache_lookup_us = lookup_micros;
  std::future<core::DetectionReport> future = request.promise.get_future();
  if (on_complete) {
    request.future = std::move(future);
    request.on_complete = std::move(on_complete);
    future = {};
  }
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) {
      if (!request.on_complete) {
        throw std::runtime_error("DetectionService::submit: service is shutting down");
      }
      rejected = true;  // callback fires below, outside the queue lock
    } else {
      queue_.push_back(std::move(request));
      ++outstanding_;
    }
  }
  if (rejected) {
    // Async callers get the rejection through the callback — a reactor
    // must not need try/catch around every enqueue during shutdown.
    request.fail(std::make_exception_ptr(
        std::runtime_error("DetectionService::submit: service is shutting down")));
    return {};
  }
  queue_cv_.notify_one();
  return future;
}

core::DetectionReport DetectionService::scan(std::string verilog_source) {
  return submit(std::move(verilog_source)).get();
}

core::DetectionReport DetectionService::scan(const std::string& model_spec,
                                             std::string verilog_source) {
  return submit(model_spec, std::move(verilog_source)).get();
}

void DetectionService::drain() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  drained_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

std::vector<const DetectionService::StatsCell*> DetectionService::all_cells() const {
  // Cells never move or die, so the lock only covers collecting them.
  std::lock_guard<std::mutex> lock(cells_mutex_);
  std::vector<const StatsCell*> cells;
  cells.reserve(cells_.size());
  for (const auto& [name, cell] : cells_) cells.push_back(&cell);
  return cells;
}

ServiceStats DetectionService::stats() const { return view_of(all_cells()); }

ServiceStats DetectionService::stats(const std::string& model_name) const {
  const StatsCell* cell = nullptr;
  {
    std::lock_guard<std::mutex> lock(cells_mutex_);
    const auto it = cells_.find(model_name);
    if (it == cells_.end()) return {};
    cell = &it->second;
  }
  return view_of(std::array{cell});
}

std::map<std::string, ServiceStats> DetectionService::stats_by_model() const {
  std::map<std::string, ServiceStats> by_model;
  for (const StatsCell* cell : all_cells()) {
    by_model[cell->model] = view_of(std::array{cell});
  }
  return by_model;
}

DiskCacheStats DetectionService::disk_cache_stats() const {
  if (!disk_cache_) {
    DiskCacheStats none;
    none.enabled = false;
    return none;
  }
  return disk_cache_->stats();
}

void DetectionService::render_prometheus(std::ostream& os) {
  sync_mirrored_metrics();
  metrics_.render_prometheus(os);
}

std::vector<obs::MetricsRegistry::Sample> DetectionService::metrics_snapshot() {
  sync_mirrored_metrics();
  return metrics_.snapshot();
}

void DetectionService::sync_mirrored_metrics() {
  // The request counters need no sampling: their registry cells are the
  // only store, so `!stats` and `!metrics` read the same numbers. What is
  // sampled here is owned elsewhere — the LRU, the queue, the model
  // registry, the disk tier — plus the max over the per-model batch-size
  // atomics (there is no per-model series to sum).
  metrics_.gauge("noodle_max_batch_size", "Largest coalesced batch group so far.")
      .set(static_cast<std::int64_t>(stats().max_batch_size));
  metrics_.gauge("noodle_cache_entries", "Live verdict-cache entries.")
      .set(static_cast<std::int64_t>(cache_size()));
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    metrics_.gauge("noodle_dispatch_queue_depth", "Requests awaiting the dispatcher.")
        .set(static_cast<std::int64_t>(queue_.size()));
    metrics_.gauge("noodle_requests_outstanding", "Submitted but unanswered requests.")
        .set(static_cast<std::int64_t>(outstanding_));
  }
  metrics_.gauge("noodle_models_loaded", "Live generations in the registry.")
      .set(static_cast<std::int64_t>(registry_->size()));
  const ReloadStats reloads = registry_->reload_stats();
  metrics_
      .counter("noodle_reloads_total", "Model publish/reload attempts by result.",
               {{"result", "ok"}})
      .set(reloads.ok);
  metrics_
      .counter("noodle_reloads_total", "Model publish/reload attempts by result.",
               {{"result", "error"}})
      .set(reloads.errors);
  metrics_
      .counter("noodle_reload_busy_microseconds_total",
               "Wall time spent loading and validating snapshots.")
      .set(reloads.load_micros_total);

  if (disk_cache_) {
    // One consistent DiskCacheStats snapshot feeds every disk-tier sample —
    // the same snapshot `!stats` renders, so the two can never disagree.
    const DiskCacheStats disk = disk_cache_->stats();
    const auto disk_counter = [this](const char* name, const char* help,
                                     std::uint64_t value) {
      metrics_.counter(name, help).set(value);
    };
    disk_counter("noodle_disk_cache_hits_total",
                 "Disk-tier lookups answered from a verified record.", disk.hits);
    disk_counter("noodle_disk_cache_misses_total",
                 "Disk-tier lookups that found no usable record.", disk.misses);
    disk_counter("noodle_disk_cache_stores_total",
                 "Verdict records durably published to disk.", disk.stores);
    disk_counter("noodle_disk_cache_drops_total",
                 "Disk stores dropped (full queue, degraded, or shutdown).",
                 disk.drops);
    disk_counter("noodle_disk_cache_corrupt_total",
                 "Record files refused by validation (sum over reasons).",
                 disk.corrupt);
    disk_counter("noodle_disk_cache_evictions_total",
                 "Records unlinked by byte-budget LRU eviction.", disk.evictions);
    disk_counter("noodle_disk_cache_collisions_total",
                 "Disk-tier key hits whose full source bytes differed.",
                 disk.collisions);
    disk_counter("noodle_disk_cache_temps_swept_total",
                 "Crash-orphaned temp files swept at startup.", disk.temps_swept);
    for (std::size_t r = 0; r < disk.skipped.size(); ++r) {
      metrics_
          .counter("noodle_disk_cache_skipped_total",
                   "Record files refused by validation, by reason.",
                   {{"reason", to_string(static_cast<DiskCacheSkip>(r))}})
          .set(disk.skipped[r]);
    }
    metrics_.gauge("noodle_disk_cache_entries", "Live indexed disk records.")
        .set(static_cast<std::int64_t>(disk.entries));
    metrics_.gauge("noodle_disk_cache_bytes", "Total bytes of live disk records.")
        .set(static_cast<std::int64_t>(disk.bytes));
    metrics_
        .gauge("noodle_disk_cache_degraded",
               "1 when a disk failure flipped the tier to memory-only mode.")
        .set(disk.degraded ? 1 : 0);
    metrics_
        .gauge("noodle_disk_cache_enabled",
               "1 while the disk tier accepts lookups and stores.")
        .set(disk.enabled ? 1 : 0);
  }
}

ModelHandle DetectionService::reload(const std::string& name,
                                     const std::filesystem::path& path) {
  return registry_->reload_from(name, path);
}

std::size_t DetectionService::cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_.size();
}

void DetectionService::dispatcher_loop() {
  for (;;) {
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      if (!stopping_ && queue_.size() < config_.max_batch &&
          config_.batch_linger.count() > 0) {
        // Linger briefly so concurrent callers coalesce into one batch.
        queue_cv_.wait_for(lock, config_.batch_linger, [this] {
          return stopping_ || queue_.size() >= config_.max_batch;
        });
      }
      const std::size_t take = std::min(config_.max_batch, queue_.size());
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    pool_.submit(
        [this, shared = std::make_shared<std::vector<Request>>(std::move(batch))] {
          process_batch(std::move(*shared));
        });
  }
}

void DetectionService::process_batch(std::vector<Request> batch) {
  // Partition by requested spec: each group resolves one registry handle
  // and is answered entirely by that generation, so a concurrent
  // reload_from can never mix generations inside a group.
  std::map<std::string, std::vector<Request>> groups;
  for (Request& request : batch) {
    groups[request.spec.to_string()].push_back(std::move(request));
  }
  for (auto& [label, group] : groups) process_group(label, std::move(group));
}

void DetectionService::process_group(const std::string& group_label,
                                     std::vector<Request> group) {
  StatsCell& cell = *group.front().cell;  // one spec label, so one name
  const std::size_t submitted = group.size();
  // Queue wait: submit() to this pickup, per request, on the one monotonic
  // clock every span uses.
  const std::uint64_t pickup_nanos = obs::now_nanos();
  for (Request& request : group) {
    const std::uint64_t wait_nanos = pickup_nanos - request.submit_nanos;
    stage_hist_[kStageQueueWait]->record(wait_nanos);
    request.timing.queue_wait_us = wait_nanos / 1000;
  }

  // Deadline sweep — BEFORE resolve and featurize: a request nobody is
  // waiting for anymore must not cost a scan (that is the whole point of
  // deadlines under overload), and expiry answers even when the model
  // does not exist.
  if (std::any_of(group.begin(), group.end(),
                  [&](const Request& r) {
                    return r.deadline_nanos != 0 && pickup_nanos >= r.deadline_nanos;
                  })) {
    std::vector<Request> live;
    live.reserve(group.size());
    for (Request& request : group) {
      if (request.deadline_nanos != 0 && pickup_nanos >= request.deadline_nanos) {
        cell.deadline_timeouts->inc();
        request.fail(std::make_exception_ptr(DeadlineError(
            "DetectionService: deadline expired before dispatch")));
      } else {
        live.push_back(std::move(request));
      }
    }
    group = std::move(live);
    if (group.empty()) {
      finish_requests(submitted);
      return;
    }
  }

  const ModelHandle handle = registry_->try_resolve(group.front().spec);
  if (!handle) {
    const auto error = std::make_exception_ptr(
        RegistryError("DetectionService: no model '" + group_label + "'"));
    for (Request& request : group) {
      cell.model_misses->inc();
      request.fail(error);
    }
    finish_requests(submitted);
    return;
  }

  // Featurize per request so one malformed source fails only its own
  // future; the surviving samples still share one scan_many pass.
  std::vector<data::FeatureSample> samples;
  std::vector<std::size_t> sample_owner;  // index into group
  std::vector<std::vector<lint::OwnedFinding>> findings;  // parallel to samples
  std::vector<std::pair<std::size_t, std::exception_ptr>> rejected;
  samples.reserve(group.size());
  // The dispatcher's pool threads are long-lived, so each worker's
  // thread-local FeaturizeWorkspace (and LintWorkspace) reaches a warm
  // steady state and processes request sources with zero front-end heap
  // allocations. The lint pass must run right after each featurize, while
  // the workspace's arena still holds that parse; each request carries its
  // own submit-time lint flag, so one batch can mix linted and plain scans
  // across a set_lint() toggle.
  feat::FeaturizeWorkspace& workspace = feat::thread_workspace();
  for (std::size_t i = 0; i < group.size(); ++i) {
    try {
      {
        obs::TraceSpan span(stage_hist_[kStageFeaturize],
                            &group[i].timing.featurize_us);
        samples.push_back(data::featurize_source(group[i].source, workspace));
      }
      if (group[i].lint) {
        obs::TraceSpan span(stage_hist_[kStageLint], &group[i].timing.lint_us);
        findings.push_back(core::lint_last_parse(workspace));
      } else {
        findings.emplace_back();
      }
      sample_owner.push_back(i);
    } catch (...) {
      rejected.emplace_back(i, std::current_exception());
    }
  }

  std::uint64_t scan_nanos = 0;
  std::vector<core::DetectionReport> reports;
  std::exception_ptr batch_error;
  if (!samples.empty()) {
    try {
      // The handle pins this generation for the whole batch: a reload
      // swapping `latest` right now neither blocks this scan nor changes
      // its verdicts. The span records the whole-batch scan once into the
      // infer histogram; per-request shares land in timing.infer_us. One
      // thread: the pool's workers are the parallelism, so a batch never
      // fans out further.
      obs::TraceSpan span(stage_hist_[kStageInfer]);
      reports = handle->model().scan_many(samples, 1);
      scan_nanos = span.finish();
    } catch (...) {
      // A batch-level failure must not leave futures dangling (a task
      // escaping into the pool would terminate the process).
      batch_error = std::current_exception();
    }
  }
  const std::uint64_t elapsed_micros = scan_nanos / 1000;
  for (core::DetectionReport& report : reports) report.served_by = handle->label();
  for (std::size_t s = 0; s < reports.size(); ++s) {
    reports[s].lint_ran = group[sample_owner[s]].lint;
    reports[s].lint_findings = std::move(findings[s]);
  }

  // Stamp per-request timing before counters/cache publication so cached
  // entries and fulfilled futures carry identical breakdowns. infer_us is
  // the request's amortized share of the one batched scan.
  const std::uint64_t resolve_nanos = obs::now_nanos();
  const std::uint64_t infer_share_micros =
      reports.empty() ? 0 : scan_nanos / 1000 / reports.size();
  for (std::size_t s = 0; s < reports.size(); ++s) {
    Request& owner = group[sample_owner[s]];
    owner.timing.infer_us = infer_share_micros;
    const std::uint64_t total_nanos = resolve_nanos - owner.submit_nanos;
    owner.timing.total_us = total_nanos / 1000;
    stage_hist_[kStageTotal]->record(total_nanos);
    reports[s].timing = owner.timing;
  }

  // Publish counters and cache entries BEFORE fulfilling any promise, so a
  // caller who has observed a verdict also observes its counters.
  record_batch(cell, reports, rejected.size(), group.size(), elapsed_micros);
  for (std::size_t s = 0; s < reports.size(); ++s) {
    cache_store(CacheKey{handle->id(), group[sample_owner[s]].key},
                group[sample_owner[s]].source, reports[s]);
  }
  if (disk_cache_ != nullptr) {
    // Queue for the disk tier's background writer: the handoff is a queue
    // push, never a disk write, so promise fulfillment below is not held
    // up by persistence. store() itself refuses lint-bearing reports.
    const std::uint64_t digest = handle->model().content_digest();
    for (std::size_t s = 0; s < reports.size(); ++s) {
      disk_cache_->store(
          PersistentVerdictCache::Key{feat::kFeatureVersion, digest,
                                      group[sample_owner[s]].key},
          group[sample_owner[s]].source, reports[s]);
    }
  }

  for (auto& [owner, error] : rejected) group[owner].fail(error);
  if (batch_error) {
    for (const std::size_t owner : sample_owner) {
      group[owner].fail(batch_error);
    }
  } else {
    for (std::size_t s = 0; s < reports.size(); ++s) {
      group[sample_owner[s]].deliver(std::move(reports[s]));
    }
  }
  finish_requests(submitted);
}

void DetectionService::record_batch(StatsCell& cell,
                                    const std::vector<core::DetectionReport>& reports,
                                    std::uint64_t parse_failures,
                                    std::uint64_t batch_size, std::uint64_t scan_micros) {
  cell.batches->inc();
  cell.scans->inc(reports.size());
  if (parse_failures > 0) cell.parse_failures->inc(parse_failures);
  cell.scan_micros->inc(scan_micros);
  std::uint64_t largest = cell.max_batch_size.load(std::memory_order_relaxed);
  while (largest < batch_size &&
         !cell.max_batch_size.compare_exchange_weak(largest, batch_size,
                                                    std::memory_order_relaxed)) {
  }

  std::uint64_t lint_runs = 0;
  std::array<std::uint64_t, lint::kRuleCount> by_rule{};
  for (const core::DetectionReport& report : reports) {
    lint_runs += report.lint_ran ? 1 : 0;
    for (const lint::OwnedFinding& finding : report.lint_findings) {
      ++by_rule[static_cast<std::size_t>(finding.rule)];
    }
  }
  if (lint_runs == 0) return;
  cell.lint_runs->inc(lint_runs);
  for (std::size_t rule = 0; rule < lint::kRuleCount; ++rule) {
    if (by_rule[rule] == 0) continue;
    obs::Counter* findings = cell.lint_by_rule[rule].load(std::memory_order_acquire);
    if (findings == nullptr) {
      // First finding for this rule: register the series now, so a rule
      // that never fires adds no label variant. Get-or-create makes a
      // racing registration from another worker return the same counter.
      findings = &metrics_.counter(
          "noodle_lint_findings_total", "Lint findings by rule.",
          {{"model", cell.model},
           {"rule", lint::rule_info(static_cast<lint::RuleId>(rule)).code}});
      cell.lint_by_rule[rule].store(findings, std::memory_order_release);
    }
    findings->inc(by_rule[rule]);
  }
}

void DetectionService::finish_requests(std::size_t count) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    outstanding_ -= count;
    if (outstanding_ != 0) return;
  }
  drained_cv_.notify_all();
}

DetectionService::CacheProbe DetectionService::cache_lookup(
    const CacheKey& key, const std::string& source, bool want_lint,
    core::DetectionReport& report) {
  if (config_.cache_capacity == 0) return CacheProbe::kMissBypass;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = cache_.find(key);
  if (it == cache_.end()) return CacheProbe::kMissAbsent;
  if (it->second.source != source) return CacheProbe::kMissCollision;
  // A toggled lint setting makes older entries non-answers: a lint-on
  // caller must get findings, a lint-off caller must not pay for stale
  // ones. The check runs BEFORE any hit side effect (LRU bump, report
  // copy) — and the caller counts the hit only on kHit — so `!lint`
  // toggles can never produce a phantom hit. The rescan re-stores the
  // entry under the current setting.
  if (it->second.report.lint_ran != want_lint) return CacheProbe::kMissLintState;
  lru_.splice(lru_.begin(), lru_, it->second.position);  // bump to most-recent
  report = it->second.report;
  return CacheProbe::kHit;
}

void DetectionService::cache_store(const CacheKey& key, const std::string& source,
                                   const core::DetectionReport& report) {
  if (config_.cache_capacity == 0) return;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.position);
    it->second.source = source;
    it->second.report = report;
    return;
  }
  lru_.push_front(key);
  cache_.emplace(key, CacheEntry{source, report, lru_.begin()});
  while (cache_.size() > config_.cache_capacity) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
}

}  // namespace noodle::serve
