#pragma once
// Versioned binary snapshot archive — the container format behind
// core::FittedModel::save()/load(). A snapshot is what turns a fitted detector
// into a deployable artifact: train once, write the archive, and any number
// of serving processes can load it without paying the corpus → GAN → CNN →
// ICP fit again (see serve::DetectionService).
//
// Archive layout (all integers little-endian, doubles as IEEE-754 bits):
//
//   u64  magic      "NOODSNP1" — rejects non-snapshot files immediately
//   u32  version    format version; readers accept [kSnapshotVersionMin,
//                   kSnapshotVersion] and reject anything newer or older
//   u32  sections   section count
//   per section:
//     4 bytes tag   e.g. "CONF", "EARL", "LATE", "META"
//     u64   length  body byte count
//     ...   body    component-owned encoding (nn weights, ICP scores, ...)
//   u64  checksum   FNV-1a over every preceding byte
//
// The trailing checksum plus per-section length framing means truncation,
// bit corruption, and wrong-version files all fail with SnapshotError
// before any component state is touched.

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace noodle::serve {

/// Raised on any malformed, truncated, corrupted, or version-mismatched
/// snapshot; the message says which check failed.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

/// Little-endian u64 whose on-disk bytes spell "NOODSNP1".
inline constexpr std::uint64_t kSnapshotMagic = 0x31504e53444f4f4eULL;
/// Version 1: f64 weight blobs only. Version 2: weight sections may carry
/// the compact f32 encoding (nn::WeightPrecision::F32, ~2x smaller) — the
/// blob's own magic says which, so v1 archives still load. Version 3:
/// weight sections may carry the per-buffer-scaled int8 encoding
/// (nn::WeightPrecision::I8, ~8x smaller), and the META section carries
/// the feat::kFeatureVersion the model was fitted against.
inline constexpr std::uint32_t kSnapshotVersionMin = 1;
inline constexpr std::uint32_t kSnapshotVersion = 3;

/// Accumulates tagged sections in memory, then writes the framed, checksummed
/// archive in one pass. Usage:
///
///   SnapshotWriter writer;
///   component.save(writer.begin_section("CONF"));
///   other.save(writer.begin_section("EARL"));
///   writer.write_file(path);
///
/// `version` is the format version stamped into the header. Writers should
/// stamp the LOWEST version whose features the payload actually uses (e.g.
/// kSnapshotVersionMin for pure-f64 archives), so older readers keep
/// loading archives they are perfectly able to parse.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::uint32_t version = kSnapshotVersion);

  /// Starts a new section (tag must be exactly 4 bytes) and returns the
  /// stream its body is written to. The previous section, if any, is sealed.
  std::ostream& begin_section(std::string_view tag);

  /// Serializes header + all sections + checksum.
  void write_to(std::ostream& os);
  void write_file(const std::filesystem::path& path);

 private:
  void seal_current();

  std::uint32_t version_;
  struct Section {
    std::string tag;
    std::string body;
  };
  std::vector<Section> sections_;
  std::string current_tag_;
  std::ostringstream current_;
  bool in_section_ = false;
};

/// Parses and fully validates an archive up front (magic, version, framing,
/// checksum), then hands out per-section body streams by tag.
class SnapshotReader {
 public:
  /// Throws SnapshotError if the bytes are not a valid version-matched
  /// archive.
  explicit SnapshotReader(std::istream& is);

  static SnapshotReader from_file(const std::filesystem::path& path);

  bool has_section(std::string_view tag) const;

  /// Stream over the named section's body. Each section may be opened once;
  /// a missing or already-consumed tag throws SnapshotError.
  std::istream& section(std::string_view tag);

  std::size_t section_count() const noexcept { return sections_.size(); }

 private:
  struct Section {
    std::string tag;
    std::string body;
    bool consumed = false;
  };
  std::vector<Section> sections_;
  std::istringstream current_;
};

}  // namespace noodle::serve
