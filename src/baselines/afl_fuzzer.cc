#include "baselines/afl_fuzzer.h"

#include <cmath>
#include <sstream>

#include "common/stopwatch.h"
#include "common/strings.h"

namespace kondo {
namespace {

/// AFL's "interesting" byte values.
constexpr unsigned char kInterestingBytes[] = {0x00, 0x01, 0x7F, 0x80,
                                               0xFF, '0',  '9',  ' '};

}  // namespace

AflFuzzer::AflFuzzer(const Program& program, AflConfig config)
    : program_(program), config_(config), rng_(config.rng_seed) {}

std::optional<ParamValue> AflFuzzer::ParseInput(
    const std::string& input) const {
  const int m = program_.param_space().num_params();
  std::istringstream stream(input);
  ParamValue v;
  std::string token;
  while (stream >> token) {
    int64_t value = 0;
    if (!ParseInt64(token, &value)) {
      return std::nullopt;  // Non-integer garbage: the target rejects it.
    }
    v.push_back(static_cast<double>(value));
  }
  if (static_cast<int>(v.size()) != m) {
    return std::nullopt;
  }
  return v;
}

std::string AflFuzzer::FormatInput(const ParamValue& v) const {
  std::ostringstream os;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) {
      os << " ";
    }
    os << static_cast<int64_t>(std::llround(v[i]));
  }
  return os.str();
}

void AflFuzzer::MutateOnce(std::string* input) {
  if (input->empty()) {
    input->push_back('0');
  }
  const int op = static_cast<int>(rng_.UniformInt(0, 6));
  const size_t pos =
      static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(input->size()) - 1));
  switch (op) {
    case 0: {  // Bit flip.
      (*input)[pos] = static_cast<char>(
          (*input)[pos] ^ (1 << rng_.UniformInt(0, 7)));
      break;
    }
    case 1: {  // Interesting byte.
      (*input)[pos] = static_cast<char>(
          kInterestingBytes[rng_.UniformInt(0, 7)]);
      break;
    }
    case 2: {  // Arithmetic on a byte.
      (*input)[pos] = static_cast<char>(
          static_cast<unsigned char>((*input)[pos]) +
          static_cast<unsigned char>(rng_.UniformInt(-35, 35)));
      break;
    }
    case 3: {  // Random byte.
      (*input)[pos] = static_cast<char>(rng_.UniformInt(0, 255));
      break;
    }
    case 4: {  // Delete byte.
      input->erase(pos, 1);
      break;
    }
    case 5: {  // Insert random printable byte.
      input->insert(pos, 1, static_cast<char>(rng_.UniformInt(32, 126)));
      break;
    }
    case 6: {  // Duplicate a span.
      const size_t len = static_cast<size_t>(
          rng_.UniformInt(1, std::min<int64_t>(4, static_cast<int64_t>(
                                                      input->size() - pos))));
      input->insert(pos, input->substr(pos, len));
      break;
    }
  }
  // Keep inputs bounded, as AFL does.
  if (input->size() > 64) {
    input->resize(64);
  }
}

AflResult AflFuzzer::Run() {
  AflResult result;
  result.coverage = IndexSet(program_.data_shape());
  Stopwatch stopwatch;

  // Starting corpus: the corners and centre of Θ, like a user-provided seed.
  const ParamSpace& space = program_.param_space();
  ParamValue lo(static_cast<size_t>(space.num_params()));
  ParamValue mid(static_cast<size_t>(space.num_params()));
  for (int i = 0; i < space.num_params(); ++i) {
    lo[static_cast<size_t>(i)] = space.range(i).lo;
    mid[static_cast<size_t>(i)] = (space.range(i).lo + space.range(i).hi) / 2;
  }
  queue_ = {FormatInput(lo), FormatInput(mid)};

  auto execute = [this, &result](const std::string& input) {
    BusyWaitMicros(config_.exec_overhead_micros);
    ++result.execs;
    std::optional<ParamValue> v = ParseInput(input);
    if (!v.has_value()) {
      return false;
    }
    ++result.valid_execs;
    // The per-index "if" instrumentation: a newly true branch == a newly
    // covered index.
    const IndexSet accessed = program_.AccessSet(*v);
    if (accessed.IsSubsetOf(result.coverage)) {
      return false;
    }
    result.coverage.Union(accessed);
    return true;
  };

  // Execute the starting corpus.
  for (const std::string& seed : queue_) {
    execute(seed);
  }

  while (true) {
    if (config_.max_seconds > 0.0 &&
        stopwatch.ElapsedSeconds() >= config_.max_seconds) {
      break;
    }
    if (config_.max_execs > 0 && result.execs >= config_.max_execs) {
      break;
    }
    // Pick a queue entry; occasionally splice two entries (AFL's splice
    // stage), then havoc-stack random byte mutations.
    std::string input =
        queue_[static_cast<size_t>(rng_.UniformInt(
            0, static_cast<int64_t>(queue_.size()) - 1))];
    if (queue_.size() >= 2 && rng_.Bernoulli(0.1)) {
      const std::string& other =
          queue_[static_cast<size_t>(rng_.UniformInt(
              0, static_cast<int64_t>(queue_.size()) - 1))];
      const size_t cut = static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(input.size())));
      const size_t other_cut = static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(other.size())));
      input = input.substr(0, cut) + other.substr(other_cut);
    }
    const int stacked =
        static_cast<int>(rng_.UniformInt(1, config_.max_stacked));
    for (int s = 0; s < stacked; ++s) {
      MutateOnce(&input);
    }
    if (execute(input)) {
      queue_.push_back(input);
    }
  }

  result.queue_size = static_cast<int64_t>(queue_.size());
  result.elapsed_seconds = stopwatch.ElapsedSeconds();
  return result;
}

}  // namespace kondo
