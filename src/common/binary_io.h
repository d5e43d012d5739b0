#ifndef LTE_COMMON_BINARY_IO_H_
#define LTE_COMMON_BINARY_IO_H_

#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace lte {

/// Little-endian binary serialization helpers used by the model-persistence
/// layer (core/serialization.h). Writers are infallible until the final
/// `status()` check (stream errors are sticky); readers return Status so a
/// truncated or corrupted file surfaces as a clean error instead of garbage
/// state. Readers grow their buffers a bounded chunk at a time as bytes
/// arrive, so a corrupt length word costs memory in proportion to the bytes
/// actually present, never to the length it claims.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream* out) : out_(out) {}

  void WriteU64(uint64_t v);
  void WriteI64(int64_t v);
  void WriteDouble(double v);
  void WriteBool(bool v);
  void WriteString(const std::string& s);
  void WriteDoubleVector(const std::vector<double>& v);
  void WriteI64Vector(const std::vector<int64_t>& v);
  /// Vector of equally important rows (e.g. cluster centers).
  void WritePointSet(const std::vector<std::vector<double>>& points);

  /// OK while every write so far succeeded.
  Status status() const;

 private:
  /// Writes a length word and then every element's bytes in one write.
  template <typename T>
  void WriteSized(const std::vector<T>& v);

  std::ostream* out_;
};

/// The file ends of the stream codecs. WriteFile opens `path` for binary
/// writing, runs `write`, then closes the file and checks it: a write that
/// fails, the final flush included (disk full, I/O error), returns IoError,
/// never OK. ReadFile opens `path` for binary reading, runs `read`, and
/// names the file in a format error (InvalidArgument).
Status WriteFile(const std::string& path,
                 const std::function<Status(std::ostream*)>& write);
Status ReadFile(const std::string& path,
                const std::function<Status(std::istream*)>& read);

/// FNV-1a 64-bit hash of a byte buffer. Used as the model content
/// fingerprint stamped into saved sessions (see exploration_model.h):
/// fast, dependency-free, stable across hosts, and good enough to make an
/// accidental stale-session/refreshed-model collision vanishingly unlikely
/// (this is an integrity check, not a cryptographic commitment).
uint64_t Fnv1a64(const void* data, size_t size);

class BinaryReader {
 public:
  explicit BinaryReader(std::istream* in) : in_(in) {}

  Status ReadU64(uint64_t* v);
  Status ReadI64(int64_t* v);
  Status ReadDouble(double* v);
  Status ReadBool(bool* v);
  Status ReadString(std::string* s);
  Status ReadDoubleVector(std::vector<double>* v);
  Status ReadI64Vector(std::vector<int64_t>* v);
  Status ReadPointSet(std::vector<std::vector<double>>* points);

 private:
  Status ReadBytes(void* dst, size_t n);
  /// Reads a length word, refusing one no file of ours could hold.
  Status ReadLength(uint64_t* n);
  /// Reads a length word and that many fixed-width elements into `*v`
  /// (replacing its contents), growing it one bounded chunk per read.
  template <typename Container>
  Status ReadSized(Container* v);

  std::istream* in_;
};

}  // namespace lte

#endif  // LTE_COMMON_BINARY_IO_H_
