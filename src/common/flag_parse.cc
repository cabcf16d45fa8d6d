#include "common/flag_parse.h"

#include <algorithm>
#include <charconv>

#include "common/strings.h"

namespace kondo {

Args::Args(const std::vector<std::string>& argv, std::string_view flags) {
  const std::vector<std::string> declared = StrSplit(flags, ' ');
  for (size_t i = 0; i < argv.size(); ++i) {
    const std::string& arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positionals_.push_back(arg);
      continue;
    }
    const auto declares = [&](const std::string& spec) {
      return std::find(declared.begin(), declared.end(), spec) !=
             declared.end();
    };
    if (declares(arg + "=")) {
      if (i + 1 == argv.size()) {
        Reject(StrCat(arg, " needs a value"));
      } else {
        flags_.emplace_back(arg, argv[++i]);
      }
    } else if (declares(arg)) {
      flags_.emplace_back(arg, "");
    } else {
      Reject(StrCat("unknown flag ", arg));
    }
  }
}

std::optional<std::string> Args::Find(const std::string& flag) {
  std::optional<std::string> value;
  for (const auto& [name, text] : flags_) {
    if (name != flag) {
      continue;
    }
    if (value.has_value()) {
      Reject(StrCat(flag, " given more than once"));
    }
    value = text;
  }
  return value;
}

bool Args::Has(const std::string& flag) { return Find(flag).has_value(); }

std::string Args::Value(const std::string& flag) {
  return Find(flag).value_or("");
}

std::string Args::Required(const std::string& flag) {
  std::string value = Value(flag);
  if (value.empty()) {
    Reject(StrCat("missing ", flag));
  }
  return value;
}

namespace {

bool ParsePositive(std::string_view text, int64_t* value) {
  return ParseInt64(text, value) && *value > 0;
}

/// Parses an endpoint: all digits is a loopback TCP port (1..65535),
/// anything else a unix-domain socket path.
bool ParseEndpoint(const std::string& text, SocketAddress* address) {
  if (text.find_first_not_of("0123456789") != std::string::npos) {
    address->unix_path = text;
    return true;
  }
  int64_t port = 0;
  if (!ParseInt64(text, &port) || port < 1 || port > 65535) {
    return false;
  }
  address->port = static_cast<int>(port);
  return true;
}

bool ParseUint64(std::string_view text, uint64_t* value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *value);
  return !text.empty() && ec == std::errc() && ptr == end;
}

}  // namespace

template <typename T>
std::optional<T> Args::Number(const std::string& flag, const char* want,
                              bool (*parse)(std::string_view, T*)) {
  const std::optional<std::string> text = Find(flag);
  T value{};
  if (!text.has_value()) {
    return std::nullopt;
  }
  if (!parse(*text, &value)) {
    Reject(StrCat("invalid ", flag, " value (want ", want, "): ", *text));
    return std::nullopt;
  }
  return value;
}

std::optional<int64_t> Args::PositiveInt(const std::string& flag) {
  return Number<int64_t>(flag, "a positive integer", ParsePositive);
}

std::optional<int64_t> Args::Int64(const std::string& flag) {
  return Number<int64_t>(flag, "an integer", ParseInt64);
}

std::optional<uint64_t> Args::Uint64(const std::string& flag) {
  return Number<uint64_t>(flag, "an unsigned integer", ParseUint64);
}

std::optional<double> Args::Double(const std::string& flag) {
  return Number<double>(flag, "a number", ParseDouble);
}

SocketAddress Args::Address() {
  SocketAddress address;
  address.unix_path = Value("--socket");
  const std::optional<std::string> port = Find("--port");
  if (address.is_unix() == port.has_value()) {
    Reject("want exactly one of --socket PATH or --port N");
  } else if (port.has_value() &&
             (!ParseEndpoint(*port, &address) || address.is_unix())) {
    Reject(StrCat("invalid --port value (want 1..65535): ",
                      *port));
  }
  return address;
}

std::vector<SocketAddress> Args::Endpoints(const std::string& flag) {
  std::vector<SocketAddress> endpoints;
  for (const auto& [name, text] : flags_) {
    if (name != flag) {
      continue;
    }
    SocketAddress address;
    if (!ParseEndpoint(text, &address)) {
      Reject(StrCat("invalid ", flag,
                        " port (want 1..65535): ", text));
    }
    endpoints.push_back(address);
  }
  return endpoints;
}

StatusOr<std::vector<std::string>> Args::Positionals(size_t min, size_t max) {
  if (positionals_.size() < min || positionals_.size() > max) {
    Reject(StrCat("wrong number of arguments: want ", min,
                  max == min ? "" : " or more", ", got ", positionals_.size()));
  }
  if (!status_.ok()) {
    return status_;
  }
  return positionals_;
}

Status Args::Fail(std::string_view message) {
  Reject(message);
  return status_;
}

void Args::Reject(std::string_view message) {
  if (status_.ok()) {
    status_ = InvalidArgumentError(message);
  }
}

Status ParseRange(const std::string& text, int64_t* begin, int64_t* end) {
  const std::vector<std::string> parts = StrSplit(text, ':');
  if (parts.size() != 2 || !ParseInt64(parts[0], begin) ||
      !ParseInt64(parts[1], end) || *begin >= *end) {
    return InvalidArgumentError(
        StrCat("invalid --range (want A:B with A < B): ", text));
  }
  return OkStatus();
}

}  // namespace kondo
