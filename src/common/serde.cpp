#include "common/serde.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "common/check.h"

namespace qpp {

void BinaryWriter::WriteRaw(const void* p, size_t n) {
  os_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  QPP_CHECK_MSG(os_.good(), "write failed");
}

void BinaryWriter::WriteU32(uint32_t v) { WriteRaw(&v, sizeof v); }
void BinaryWriter::WriteU64(uint64_t v) { WriteRaw(&v, sizeof v); }
void BinaryWriter::WriteI64(int64_t v) { WriteRaw(&v, sizeof v); }
void BinaryWriter::WriteDouble(double v) { WriteRaw(&v, sizeof v); }

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  if (!s.empty()) WriteRaw(s.data(), s.size());
}

void BinaryWriter::WriteDoubles(const std::vector<double>& v) {
  WriteU64(v.size());
  if (!v.empty()) WriteRaw(v.data(), v.size() * sizeof(double));
}

void BinaryReader::ReadRaw(void* p, size_t n) {
  is_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
  QPP_CHECK_MSG(is_.gcount() == static_cast<std::streamsize>(n),
                "truncated input");
}

uint32_t BinaryReader::ReadU32() {
  uint32_t v;
  ReadRaw(&v, sizeof v);
  return v;
}

uint64_t BinaryReader::ReadU64() {
  uint64_t v;
  ReadRaw(&v, sizeof v);
  return v;
}

int64_t BinaryReader::ReadI64() {
  int64_t v;
  ReadRaw(&v, sizeof v);
  return v;
}

double BinaryReader::ReadDouble() {
  double v;
  ReadRaw(&v, sizeof v);
  return v;
}

// The length-prefixed reads grow their buffer one chunk at a time as the
// payload arrives (resize grows capacity geometrically, so a long valid
// payload is still read in amortized linear time). A corrupt length thus
// costs at most one chunk before the truncation check fires, instead of an
// allocation of everything it claims.

std::string BinaryReader::ReadString() {
  const uint64_t n = ReadU64();
  QPP_CHECK_MSG(n < (1ull << 32), "implausible string length");
  std::string s;
  for (size_t done = 0; done < n;) {
    const size_t step = std::min<uint64_t>(kReadChunkBytes, n - done);
    s.resize(done + step);
    ReadRaw(s.data() + done, step);
    done += step;
  }
  return s;
}

std::vector<double> BinaryReader::ReadDoubles() {
  const uint64_t n = ReadU64();
  QPP_CHECK_MSG(n < (1ull << 32), "implausible vector length");
  constexpr size_t kChunk = kReadChunkBytes / sizeof(double);
  std::vector<double> v;
  for (size_t done = 0; done < n;) {
    const size_t step = std::min<uint64_t>(kChunk, n - done);
    v.resize(done + step);
    ReadRaw(v.data() + done, step * sizeof(double));
    done += step;
  }
  return v;
}

Status WriteFile(const std::string& path, const char* what,
                 const std::function<void(std::ostream&)>& write) {
  std::ofstream os(path, std::ios::binary);
  if (!os.good()) return Status::Error("cannot open for write: " + path);
  try {
    write(os);
  } catch (const CheckFailure& e) {
    return Status::Error(std::string(what) + " write failed: " + e.what());
  }
  os.flush();
  if (!os.good()) return Status::Error("write failed: " + path);
  return Status::Ok();
}

Status ReadFileWith(const std::string& path, const char* what,
                    const std::function<Status(std::istream&)>& read) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return Status::Error("cannot open for read: " + path);
  try {
    const Status st = read(is);
    if (!st.ok()) return st;
  } catch (const CheckFailure& e) {
    return Status::Error(std::string(what) + " read failed: " + e.what());
  }
  if (is.peek() != std::char_traits<char>::eof()) {
    return Status::Error(std::string(what) + " read failed: trailing bytes "
                         "after the " + what);
  }
  return Status::Ok();
}

}  // namespace qpp
