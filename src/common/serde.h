// Minimal binary serialization for trained models, plans and fault plans.
//
// The paper's deployment story ships a trained model from the vendor site to
// customer sites (Fig. 1); BinaryWriter/BinaryReader implement the on-disk
// format used by core::Predictor::Save/Load, optimizer/plan_serde and
// fault::FaultPlan. The format is little-endian, versioned by the caller,
// and intentionally simple: fixed-width scalars, length-prefixed strings and
// vectors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace qpp {

/// Streams plain-old-data values to an ostream in little-endian order.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& os) : os_(os) {}

  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v);
  void WriteDouble(double v);
  void WriteString(const std::string& s);
  void WriteDoubles(const std::vector<double>& v);

 private:
  void WriteRaw(const void* p, size_t n);
  std::ostream& os_;
};

/// The most a length-prefixed read (ReadString, ReadDoubles) allocates
/// ahead of the payload bytes that have arrived.
inline constexpr size_t kReadChunkBytes = size_t{1} << 20;

/// Mirror image of BinaryWriter. Throws qpp::CheckFailure on truncated or
/// corrupt input; the loaders on top of it (model, plan and fault-plan
/// files) catch it and validate every value they read, since a file may
/// arrive from anywhere. A length prefix is capped below 2^32 elements, and
/// a length the payload does not back fails as a truncation after at most
/// kReadChunkBytes of buffer.
class BinaryReader {
 public:
  explicit BinaryReader(std::istream& is) : is_(is) {}

  uint32_t ReadU32();
  uint64_t ReadU64();
  int64_t ReadI64();
  double ReadDouble();
  std::string ReadString();
  std::vector<double> ReadDoubles();

 private:
  void ReadRaw(void* p, size_t n);
  std::istream& is_;
};

// The file boundary of the binary formats (models, plans, fault plans).
// WriteFile opens `path`, runs `write` on the stream and flushes it.
// ReadFile opens `path` and runs `read`, which must consume the whole file.
// An open or stream failure, a CheckFailure thrown by the callback, an
// error the callback returns, and bytes after what it read all come back
// as an error Status; `what` names the format in the message.
Status WriteFile(const std::string& path, const char* what,
                 const std::function<void(std::ostream&)>& write);
Status ReadFileWith(const std::string& path, const char* what,
                    const std::function<Status(std::istream&)>& read);

template <typename T>
Result<T> ReadFile(const std::string& path, const char* what,
                   const std::function<Result<T>(std::istream&)>& read) {
  std::optional<Result<T>> out;
  const Status st = ReadFileWith(path, what, [&](std::istream& is) {
    out.emplace(read(is));
    return out->status();
  });
  if (!st.ok()) return st;
  return std::move(*out);
}

}  // namespace qpp
