#ifndef KONDO_COMMON_FLAG_PARSE_H_
#define KONDO_COMMON_FLAG_PARSE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/socket.h"
#include "common/status.h"
#include "common/statusor.h"

namespace kondo {

/// The arguments of one command, split against the flags it declares. Any
/// `--word` is a flag; everything else (including negative numbers such as
/// `-3`) is a positional. The typed getters parse strictly: garbage and
/// trailing junk are argument errors, never silent zeros. The first
/// argument error is kept, so a command reads every flag and then asks for
/// its positionals, which returns that error.
class Args {
 public:
  /// `flags` lists the accepted flags, space-separated; a trailing '='
  /// marks one that takes a value (`"--out= --chunked"`). An undeclared
  /// flag, or a value flag at the end of `argv`, is an argument error.
  Args(const std::vector<std::string>& argv, std::string_view flags);

  /// True when the boolean flag was given.
  bool Has(const std::string& flag);
  /// The flag's value, or "" when absent.
  std::string Value(const std::string& flag);
  /// The flag's value; absent or empty is an argument error.
  std::string Required(const std::string& flag);

  /// The flag's value as a number; nullopt when absent or malformed.
  std::optional<int64_t> PositiveInt(const std::string& flag);
  std::optional<int64_t> Int64(const std::string& flag);
  std::optional<uint64_t> Uint64(const std::string& flag);
  std::optional<double> Double(const std::string& flag);

  /// Exactly one of `--socket PATH` and `--port N`.
  SocketAddress Address();
  /// Every value of the repeatable `flag`: all digits is a loopback TCP
  /// port (1..65535), anything else a unix-domain socket path.
  std::vector<SocketAddress> Endpoints(const std::string& flag);

  /// The positionals, if there are `min` to `max` of them (`max` is
  /// either `min` or SIZE_MAX) and no argument error was recorded;
  /// otherwise the first argument error.
  StatusOr<std::vector<std::string>> Positionals(size_t min, size_t max);
  StatusOr<std::vector<std::string>> Positionals(size_t count) {
    return Positionals(count, count);
  }

  /// Records an argument error (unless one is already recorded) and
  /// returns the recorded one.
  Status Fail(std::string_view message);
  bool failed() const { return !status_.ok(); }

 private:
  /// The value of a flag given at most once (a repeat is an error).
  std::optional<std::string> Find(const std::string& flag);
  /// Records an argument error unless one is already recorded.
  void Reject(std::string_view message);
  /// The flag's value parsed by `parse`; `want` names the expected form.
  template <typename T>
  std::optional<T> Number(const std::string& flag, const char* want,
                          bool (*parse)(std::string_view, T*));

  std::vector<std::pair<std::string, std::string>> flags_;
  std::vector<std::string> positionals_;
  Status status_;
};

/// Parses "A:B" into a half-open range (requires A < B). Not an Args
/// getter: a bad `--range` is reported as a runtime error.
Status ParseRange(const std::string& text, int64_t* begin, int64_t* end);

}  // namespace kondo

#endif  // KONDO_COMMON_FLAG_PARSE_H_
