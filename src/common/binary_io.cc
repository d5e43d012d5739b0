#include "common/binary_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <utility>

namespace lte {
namespace {

// Guards against absurd sizes from corrupted files before allocating.
constexpr uint64_t kMaxReasonableCount = uint64_t{1} << 32;

// Elements a reader allocates ahead of the bytes that fill them.
constexpr uint64_t kReadChunk = uint64_t{1} << 16;

}  // namespace

void BinaryWriter::WriteU64(uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out_->write(buf, 8);
}

void BinaryWriter::WriteI64(int64_t v) {
  WriteU64(static_cast<uint64_t>(v));
}

void BinaryWriter::WriteDouble(double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out_->write(buf, 8);
}

void BinaryWriter::WriteBool(bool v) { WriteU64(v ? 1 : 0); }

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  out_->write(s.data(), static_cast<std::streamsize>(s.size()));
}

// The elements' bytes, as the per-element writers would emit them one by
// one, in a single stream write.
template <typename T>
void BinaryWriter::WriteSized(const std::vector<T>& v) {
  static_assert(sizeof(T) == 8, "vectors are written as 8-byte words");
  WriteU64(v.size());
  out_->write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(T)));
}

void BinaryWriter::WriteDoubleVector(const std::vector<double>& v) {
  WriteSized(v);
}

void BinaryWriter::WriteI64Vector(const std::vector<int64_t>& v) {
  WriteSized(v);
}

void BinaryWriter::WritePointSet(
    const std::vector<std::vector<double>>& points) {
  WriteU64(points.size());
  for (const auto& p : points) WriteDoubleVector(p);
}

Status BinaryWriter::status() const {
  return out_->good() ? Status::OK() : Status::IoError("binary write failed");
}

Status WriteFile(const std::string& path,
                 const std::function<Status(std::ostream*)>& write) {
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  LTE_RETURN_IF_ERROR(write(&out));
  // close() flushes the buffered tail; a failure there must not be
  // reported as a successful write.
  out.close();
  if (out.fail()) return Status::IoError("write failure on " + path);
  return Status::OK();
}

Status ReadFile(const std::string& path,
                const std::function<Status(std::istream*)>& read) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  const Status st = read(&in);
  if (st.code() != StatusCode::kInvalidArgument) return st;
  return Status::InvalidArgument(path + ": " + st.message());
}

uint64_t Fnv1a64(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV offset basis.
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001B3ULL;  // FNV prime.
  }
  return h;
}

Status BinaryReader::ReadBytes(void* dst, size_t n) {
  in_->read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (static_cast<size_t>(in_->gcount()) != n) {
    return Status::IoError("binary read: unexpected end of stream");
  }
  return Status::OK();
}

Status BinaryReader::ReadLength(uint64_t* n) {
  LTE_RETURN_IF_ERROR(ReadU64(n));
  if (*n > kMaxReasonableCount) {
    return Status::IoError("binary read: implausible length");
  }
  return Status::OK();
}

template <typename Container>
Status BinaryReader::ReadSized(Container* v) {
  uint64_t n = 0;
  LTE_RETURN_IF_ERROR(ReadLength(&n));
  v->clear();
  while (v->size() < n) {
    const size_t done = v->size();
    const auto take = static_cast<size_t>(std::min(n - done, kReadChunk));
    v->resize(done + take);
    LTE_RETURN_IF_ERROR(ReadBytes(
        v->data() + done, take * sizeof(typename Container::value_type)));
  }
  return Status::OK();
}

Status BinaryReader::ReadU64(uint64_t* v) { return ReadBytes(v, 8); }

Status BinaryReader::ReadI64(int64_t* v) {
  uint64_t u = 0;
  LTE_RETURN_IF_ERROR(ReadU64(&u));
  *v = static_cast<int64_t>(u);
  return Status::OK();
}

Status BinaryReader::ReadDouble(double* v) { return ReadBytes(v, 8); }

Status BinaryReader::ReadBool(bool* v) {
  uint64_t u = 0;
  LTE_RETURN_IF_ERROR(ReadU64(&u));
  if (u > 1) return Status::IoError("binary read: invalid bool");
  *v = u == 1;
  return Status::OK();
}

Status BinaryReader::ReadString(std::string* s) { return ReadSized(s); }

Status BinaryReader::ReadDoubleVector(std::vector<double>* v) {
  return ReadSized(v);
}

Status BinaryReader::ReadI64Vector(std::vector<int64_t>* v) {
  return ReadSized(v);
}

Status BinaryReader::ReadPointSet(std::vector<std::vector<double>>* points) {
  uint64_t n = 0;
  LTE_RETURN_IF_ERROR(ReadLength(&n));
  // Each point holds at least its own length word, so growing one point at
  // a time keeps the set in proportion to the bytes read.
  points->clear();
  for (uint64_t i = 0; i < n; ++i) {
    std::vector<double> p;
    LTE_RETURN_IF_ERROR(ReadDoubleVector(&p));
    points->push_back(std::move(p));
  }
  return Status::OK();
}

}  // namespace lte
