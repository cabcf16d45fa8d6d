// Integration tests for the `kondo` command-line tool: each test shells out
// to the built binary (path injected by CMake via KONDO_CLI_BINARY). KEL2
// fixtures are written with the provenance library's own writer.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "audit/event.h"
#include "provenance/kel2_writer.h"

namespace kondo {
namespace {

#ifndef KONDO_CLI_BINARY
#error "KONDO_CLI_BINARY must be defined by the build"
#endif

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

/// Runs `command` through the shell, capturing stdout and stderr.
CommandResult RunShell(const std::string& command) {
  std::FILE* pipe = popen(("(" + command + ") 2>&1").c_str(), "r");
  CommandResult result;
  if (pipe == nullptr) {
    return result;
  }
  std::array<char, 512> buffer;
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

CommandResult RunCli(const std::string& args) {
  return RunShell(std::string(KONDO_CLI_BINARY) + " " + args);
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadAllBytes(const std::string& path) {
  std::string bytes;
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return bytes;
  }
  std::array<char, 4096> buffer;
  size_t n = 0;
  while ((n = std::fread(buffer.data(), 1, buffer.size(), in)) > 0) {
    bytes.append(buffer.data(), n);
  }
  std::fclose(in);
  return bytes;
}

TEST(CliTest, NoArgsPrintsUsage) {
  const CommandResult result = RunCli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownCommandPrintsUsage) {
  EXPECT_EQ(RunCli("frobnicate").exit_code, 2);
}

TEST(CliTest, ProgramsListsRegistry) {
  const CommandResult result = RunCli("programs");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("CS"), std::string::npos);
  EXPECT_NE(result.output.find("MSI"), std::string::npos);
  EXPECT_NE(result.output.find("128x128"), std::string::npos);
}

TEST(CliTest, MakeDataInspectRoundTrip) {
  const std::string kdf = TempPath("cli_ldc.kdf");
  ASSERT_EQ(RunCli("make-data LDC " + kdf).exit_code, 0);
  const CommandResult inspect = RunCli("inspect " + kdf);
  EXPECT_EQ(inspect.exit_code, 0);
  EXPECT_NE(inspect.output.find("128x128"), std::string::npos);
  EXPECT_NE(inspect.output.find("row-major"), std::string::npos);
}

TEST(CliTest, MakeDataChunked) {
  const std::string kdf = TempPath("cli_chunked.kdf");
  ASSERT_EQ(RunCli("make-data LDC " + kdf + " --chunked").exit_code, 0);
  const CommandResult inspect = RunCli("inspect " + kdf);
  EXPECT_NE(inspect.output.find("chunked"), std::string::npos);
}

TEST(CliTest, DebloatAndReplayFlow) {
  const std::string kdf = TempPath("cli_flow.kdf");
  const std::string kdp = TempPath("cli_flow.kdp");
  ASSERT_EQ(RunCli("make-data LDC " + kdf).exit_code, 0);
  const CommandResult debloat = RunCli("debloat LDC --data " + kdf +
                                       " --out " + kdp + " --seed 3");
  EXPECT_EQ(debloat.exit_code, 0) << debloat.output;
  EXPECT_NE(debloat.output.find("smaller"), std::string::npos);

  const CommandResult inspect = RunCli("inspect " + kdp);
  EXPECT_EQ(inspect.exit_code, 0) << inspect.output;
  EXPECT_NE(inspect.output.find("debloated"), std::string::npos);
  EXPECT_NE(inspect.output.find("128x128"), std::string::npos);

  const CommandResult replay = RunCli("replay LDC " + kdp + " 3 4");
  EXPECT_EQ(replay.exit_code, 0) << replay.output;
  EXPECT_NE(replay.output.find("0 misses"), std::string::npos);
}

TEST(CliTest, ReplayWithRemoteFallback) {
  const std::string kdf = TempPath("cli_remote.kdf");
  const std::string kdp = TempPath("cli_remote.kdp");
  ASSERT_EQ(RunCli("make-data CS " + kdf).exit_code, 0);
  // A deliberately weak campaign leaves holes for the remote to fill.
  ASSERT_EQ(RunCli("debloat CS --data " + kdf + " --out " + kdp +
                   " --max-iter 100")
                .exit_code,
            0);
  const CommandResult replay =
      RunCli("replay CS " + kdp + " 1 2 --remote " + kdf);
  EXPECT_EQ(replay.exit_code, 0) << replay.output;
  EXPECT_NE(replay.output.find("remote fetches"), std::string::npos);
}

// Identity gate for the user-end runtime: the exact `replay` stdout line and
// exit code of a fixed script — all-hit, data-missing, remote-filled, mixed
// local/remote and shape-mismatch runs — on LDC and CS at fixed seeds.
TEST(CliTest, ReplayStdoutIsPinnedOnLdcAndCs) {
  const std::string ldc_kdf = TempPath("cli_pin_ldc.kdf");
  const std::string ldc_kdp = TempPath("cli_pin_ldc.kdp");
  const std::string small_kdp = TempPath("cli_pin_ldc_small.kdp");
  const std::string cs_kdf = TempPath("cli_pin_cs.kdf");
  const std::string cs_kdp = TempPath("cli_pin_cs.kdp");
  ASSERT_EQ(RunCli("make-data LDC " + ldc_kdf).exit_code, 0);
  ASSERT_EQ(RunCli("make-data CS " + cs_kdf).exit_code, 0);
  ASSERT_EQ(RunCli("debloat LDC --data " + ldc_kdf + " --out " + ldc_kdp +
                   " --seed 3")
                .exit_code,
            0);
  ASSERT_EQ(RunCli("debloat LDC --data " + ldc_kdf + " --out " + small_kdp +
                   " --seed 3 --max-evals 4")
                .exit_code,
            0);
  ASSERT_EQ(RunCli("debloat CS --data " + cs_kdf + " --out " + cs_kdp +
                   " --seed 5 --max-iter 100")
                .exit_code,
            0);

  struct Pinned {
    std::string args;
    int exit_code;
    std::string stdout_line;
  };
  const std::vector<Pinned> script = {
      {"LDC " + ldc_kdp + " 3 4", 0, "replay: OK (512 reads, 0 misses)"},
      {"LDC " + ldc_kdp + " 32 32", 0, "replay: OK (512 reads, 0 misses)"},
      {"LDC " + ldc_kdp + " 3 4 --remote " + ldc_kdf, 0,
       "replay: OK (512 local hits, 0 remote fetches, 0 bytes pulled, "
       "0 retries, 0 fetch failures)"},
      {"LDC " + small_kdp + " 30 30", 1,
       "replay: DATA_MISSING: access to debloated (Null) index (30, 36) "
       "(512 reads, 446 misses)"},
      {"LDC " + small_kdp + " 30 30 --remote " + ldc_kdf, 0,
       "replay: OK (66 local hits, 446 remote fetches, 7136 bytes pulled, "
       "0 retries, 0 fetch failures)"},
      {"CS " + cs_kdp + " 1 2", 1,
       "replay: DATA_MISSING: access to debloated (Null) index (1, 2) "
       "(256 reads, 163 misses)"},
      {"CS " + cs_kdp + " 1 2 --remote " + cs_kdf + " --fetch-retries 2", 0,
       "replay: OK (93 local hits, 163 remote fetches, 2608 bytes pulled, "
       "0 retries, 0 fetch failures)"},
      {"LDC3D " + ldc_kdp + " 10 10 10", 1,
       "replay: OUT_OF_RANGE: index out of bounds (1024 reads, 1024 misses)"},
  };
  for (const Pinned& pinned : script) {
    const CommandResult replay =
        RunCli("replay " + pinned.args + " 2>/dev/null");
    EXPECT_EQ(replay.exit_code, pinned.exit_code) << pinned.args;
    EXPECT_EQ(replay.output, pinned.stdout_line + "\n") << pinned.args;
  }
}

TEST(CliTest, EvaluatePrintsReport) {
  const CommandResult result = RunCli("evaluate LDC --seed 2");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("precision"), std::string::npos);
  EXPECT_NE(result.output.find("bloat identified"), std::string::npos);
}

TEST(CliTest, EvaluateMapRendersGrid) {
  const CommandResult result = RunCli("evaluate LDC --seed 2 --map");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("legend"), std::string::npos);
  EXPECT_NE(result.output.find('#'), std::string::npos);
}

TEST(CliTest, SpecParsesKondofile) {
  const std::string spec_path = TempPath("cli_spec.kondofile");
  std::FILE* f = std::fopen(spec_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("FROM ubuntu:20.04\nADD ./d.kdf /d.kdf\nPARAM [0-9]\n"
             "ENTRYPOINT [\"/x\"]\n",
             f);
  std::fclose(f);
  const CommandResult result = RunCli("spec " + spec_path);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("ubuntu:20.04"), std::string::npos);
  EXPECT_NE(result.output.find("[0-9]"), std::string::npos);
}

TEST(CliTest, FuzzCarveStagedPipeline) {
  const std::string state = TempPath("cli_campaign.kss");
  const CommandResult fuzz =
      RunCli("fuzz CS --out " + state + " --seed 4 --max-iter 400");
  EXPECT_EQ(fuzz.exit_code, 0) << fuzz.output;
  EXPECT_NE(fuzz.output.find("discovered offsets"), std::string::npos);

  // Resume with a second seed: the state must grow (or stay equal).
  const CommandResult resumed = RunCli("fuzz CS --out " + state +
                                       " --resume " + state +
                                       " --seed 5 --max-iter 400");
  EXPECT_EQ(resumed.exit_code, 0) << resumed.output;

  const CommandResult carve = RunCli("carve CS --state " + state);
  EXPECT_EQ(carve.exit_code, 0) << carve.output;
  EXPECT_NE(carve.output.find("precision"), std::string::npos);
}

TEST(CliTest, CarveShapeMismatchFails) {
  const std::string state = TempPath("cli_mismatch.kss");
  ASSERT_EQ(RunCli("fuzz CS --out " + state + " --max-iter 100").exit_code,
            0);
  const CommandResult carve = RunCli("carve LDC3D --state " + state);
  EXPECT_EQ(carve.exit_code, 1);
  EXPECT_NE(carve.output.find("does not match"), std::string::npos);
}

TEST(CliTest, ResumeFromAnotherProgramsStateFails) {
  const std::string other = TempPath("cli_resume_ldc3d.kss");
  const std::string state = TempPath("cli_resume_cs.kss");
  ASSERT_EQ(RunCli("fuzz LDC3D --out " + other + " --max-iter 50").exit_code,
            0);
  const CommandResult resumed = RunCli("fuzz CS --out " + state +
                                       " --resume " + other +
                                       " --max-iter 50");
  EXPECT_EQ(resumed.exit_code, 1) << resumed.output;
  EXPECT_NE(resumed.output.find("does not match"), std::string::npos)
      << resumed.output;
}

TEST(CliTest, UnknownProgramFails) {
  EXPECT_EQ(RunCli("evaluate NOPE").exit_code, 1);
}

TEST(CliTest, ReplayWrongArityFails) {
  const std::string kdf = TempPath("cli_arity.kdf");
  const std::string kdp = TempPath("cli_arity.kdp");
  ASSERT_EQ(RunCli("make-data LDC " + kdf).exit_code, 0);
  ASSERT_EQ(
      RunCli("debloat LDC --data " + kdf + " --out " + kdp).exit_code, 0);
  const CommandResult result = RunCli("replay LDC " + kdp + " 1 2 3");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("expected 2 parameters"), std::string::npos);
}

// ------------------------------------------------------------ provenance --

Event Pread(int64_t pid, int64_t file_id, int64_t offset, int64_t size) {
  Event event;
  event.id = EventId{pid, file_id};
  event.type = EventType::kPread;
  event.offset = offset;
  event.size = size;
  return event;
}

/// Writes `events` to a KEL2 store at `path`, `events_per_block` per block.
void WriteKel2Fixture(const std::string& path,
                      const std::vector<Event>& events,
                      int64_t events_per_block = 512) {
  Kel2WriterOptions options;
  options.events_per_block = events_per_block;
  StatusOr<Kel2Writer> writer = Kel2Writer::Create(path, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (const Event& event : events) {
    ASSERT_TRUE(writer->Append(event).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
}

/// Three positioned reads of file 1 by two runs.
void WriteKel2Fixture(const std::string& path,
                      int64_t events_per_block = 512) {
  WriteKel2Fixture(path,
                   {Pread(1, 1, 0, 100),    // [0,100)
                    Pread(2, 1, 250, 100),  // [250,350)
                    Pread(1, 1, 40, 20)},   // [40,60)
                   events_per_block);
}

TEST(CliTest, GlobalUsageListsProvenance) {
  const CommandResult result = RunCli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("provenance compact"), std::string::npos);
  EXPECT_NE(result.output.find("provenance query"), std::string::npos);
  EXPECT_NE(result.output.find("provenance stats"), std::string::npos);
}

TEST(CliTest, ArgumentErrorPrintsPerCommandUsage) {
  // A recognised command with bad arguments prints only its own synopsis,
  // not the global usage wall.
  const CommandResult result = RunCli("debloat");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("kondo debloat"), std::string::npos);
  EXPECT_EQ(result.output.find("kondo fuzz"), std::string::npos);
  EXPECT_EQ(result.output.find("kondo provenance"), std::string::npos);

  const CommandResult prov = RunCli("provenance");
  EXPECT_EQ(prov.exit_code, 2);
  EXPECT_NE(prov.output.find("provenance compact"), std::string::npos);
  EXPECT_EQ(prov.output.find("kondo debloat"), std::string::npos);
}

// ------------------------------------------------------- argument errors --

/// True when `output` lists at least one synopsis line ("  kondo ...") and
/// every one of them belongs to `command`.
bool ShowsOnlySynopsisOf(const std::string& output,
                         const std::string& command) {
  const std::string own = "  kondo " + command;
  int own_lines = 0;
  std::istringstream lines(output);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  kondo ", 0) != 0) {
      continue;
    }
    if (line != own && line.rfind(own + " ", 0) != 0) {
      return false;
    }
    ++own_lines;
  }
  return own_lines > 0;
}

TEST(CliTest, EveryArgumentErrorPrintsOnlyItsCommandsSynopsis) {
  // Real fixtures, so each call below is wrong only in its arguments.
  const std::string kdf = TempPath("cli_args.kdf");
  const std::string kdp = TempPath("cli_args.kdp");
  const std::string kss = TempPath("cli_args.kss");
  const std::string kel2 = TempPath("cli_args.kel2");
  ASSERT_EQ(RunCli("make-data LDC " + kdf).exit_code, 0);
  ASSERT_EQ(RunCli("debloat LDC --data " + kdf + " --out " + kdp +
                   " --max-iter 50")
                .exit_code,
            0);
  ASSERT_EQ(RunCli("fuzz LDC --out " + kss + " --max-iter 50").exit_code, 0);
  WriteKel2Fixture(kel2);
  const std::string sock = " --socket /tmp/kondo_cli_none.sock";

  struct Row {
    std::string args;
    std::string command;
  };
  const std::vector<Row> rows = {
      // One bad call per command and subcommand.
      {"programs extra", "programs"},
      {"spec", "spec"},
      {"make-data LDC", "make-data"},
      {"inspect " + kdf + " " + kdp, "inspect"},
      {"debloat LDC --data " + kdf, "debloat"},
      {"replay LDC " + kdp, "replay"},
      {"evaluate", "evaluate"},
      {"fuzz LDC", "fuzz"},
      {"carve LDC", "carve"},
      {"repack " + kdp, "repack"},
      {"provenance compact " + kel2, "provenance compact"},
      {"provenance query " + kel2, "provenance query"},
      {"provenance stats", "provenance stats"},
      {"serve", "serve"},
      {"worker", "worker"},
      {"client fetch main.kdp" + sock, "client fetch"},
      {"client query " + kel2 + sock, "client query"},
      {"client submit" + sock, "client submit"},
      {"client stats extra" + sock, "client stats"},
      {"blast" + sock, "blast"},
      // Garbage numbers, stray flags and missing arguments.
      {"make-data LDC " + TempPath("cli_args_seed.kdf") + " --seed abc",
       "make-data"},
      {"make-data LDC " + TempPath("cli_args_seed.kdf") + " --seed 7x",
       "make-data"},
      {"carve LDC --state " + kss + " --center abc", "carve"},
      {"carve LDC --state " + kss + " --boundary 1.5.2", "carve"},
      {"replay LDC " + kdp + " 1 --bogus", "replay"},
      {"replay LDC " + kdp + " 1 abc", "replay"},
      {"evaluate LDC --max-evals 10 --bogus", "evaluate"},
      {"inspect", "inspect"},
  };
  for (const Row& row : rows) {
    const CommandResult result = RunCli(row.args);
    EXPECT_EQ(result.exit_code, 2) << row.args << "\n" << result.output;
    EXPECT_TRUE(ShowsOnlySynopsisOf(result.output, row.command))
        << row.args << "\n" << result.output;
  }
}

TEST(CliTest, StrictNumbersKeepLegalValues) {
  // `--seed 0` is a seed, and a leading '-' on a parameter is a sign.
  const std::string kdf = TempPath("cli_seed0.kdf");
  const std::string kdp = TempPath("cli_seed0.kdp");
  ASSERT_EQ(RunCli("make-data LDC " + kdf + " --seed 0").exit_code, 0);
  ASSERT_EQ(RunCli("debloat LDC --data " + kdf + " --out " + kdp +
                   " --max-iter 50 --seed 0")
                .exit_code,
            0);
  const CommandResult replay = RunCli("replay LDC " + kdp + " 1 -3");
  EXPECT_EQ(replay.exit_code, 0) << replay.output;
  EXPECT_NE(replay.output.find("replay: OK"), std::string::npos)
      << replay.output;
}

TEST(CliTest, ProvenanceCompactQueryStatsFlow) {
  const std::string in = TempPath("cli_prov_in.kel2");
  const std::string kel2 = TempPath("cli_prov.kel2");
  WriteKel2Fixture(in);

  // Compaction re-blocks a KEL2 store into another KEL2 store.
  const CommandResult compact =
      RunCli("provenance compact " + in + " " + kel2 + " --block 2");
  EXPECT_EQ(compact.exit_code, 0) << compact.output;
  EXPECT_NE(compact.output.find("3 events in 2 blocks"), std::string::npos)
      << compact.output;

  // Either blocking of the store finds the same events, and both answers
  // report block decode/skip counts.
  for (const std::string& store : {in, kel2}) {
    const CommandResult query =
        RunCli("provenance query " + store + " --range 30:50");
    EXPECT_EQ(query.exit_code, 0) << query.output;
    EXPECT_NE(query.output.find("2 events"), std::string::npos)
        << query.output;
    EXPECT_NE(query.output.find("blocks"), std::string::npos);
  }

  const CommandResult runs = RunCli("provenance query " + kel2 +
                                    " --range 240:260 --runs");
  EXPECT_EQ(runs.exit_code, 0) << runs.output;
  EXPECT_NE(runs.output.find("2\n"), std::string::npos);
  EXPECT_NE(runs.output.find("1 runs"), std::string::npos);

  const CommandResult stats = RunCli("provenance stats " + kel2);
  EXPECT_EQ(stats.exit_code, 0) << stats.output;
  EXPECT_NE(stats.output.find("KEL2 store: 3 events in 2 blocks"),
            std::string::npos)
      << stats.output;
  EXPECT_NE(stats.output.find("run 1: 100 distinct bytes"),
            std::string::npos);
}

TEST(CliTest, ProvenanceStatsSaysLargerWhenBlocksCostMoreThanRecords) {
  // One event per block pays a 64-byte descriptor per event, more than a
  // 40-byte fixed-width record: the density line must say "larger".
  const std::string kel2 = TempPath("cli_prov_block1.kel2");
  WriteKel2Fixture(kel2, /*events_per_block=*/1);
  const CommandResult stats = RunCli("provenance stats " + kel2);
  EXPECT_EQ(stats.exit_code, 0) << stats.output;
  EXPECT_NE(stats.output.find("x larger than 40-byte fixed-width records"),
            std::string::npos)
      << stats.output;
}

TEST(CliTest, ProvenanceStatsListsSparseFileIds) {
  // One block holding file ids 1 and 2^40: stats must list both files
  // from the decoded events, not enumerate the descriptor's id range.
  const std::string kel2 = TempPath("cli_prov_sparse.kel2");
  const int64_t far_file = int64_t{1} << 40;
  WriteKel2Fixture(kel2, {Pread(1, 1, 0, 16), Pread(2, far_file, 8, 4)});
  const CommandResult stats = RunCli("provenance stats " + kel2);
  EXPECT_EQ(stats.exit_code, 0) << stats.output;
  EXPECT_NE(stats.output.find("KEL2 store: 2 events in 1 blocks"),
            std::string::npos)
      << stats.output;
  EXPECT_NE(stats.output.find("file 1 run 1: 16 distinct bytes"),
            std::string::npos)
      << stats.output;
  EXPECT_NE(stats.output.find("file " + std::to_string(far_file) +
                              " run 2: 4 distinct bytes"),
            std::string::npos)
      << stats.output;
}

TEST(CliTest, GlobalUsageListsServeClientBlast) {
  const CommandResult result = RunCli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("serve"), std::string::npos);
  EXPECT_NE(result.output.find("blast"), std::string::npos);
  EXPECT_NE(result.output.find("client fetch"), std::string::npos);
}

TEST(CliTest, ServeRejectsGarbageIntFlags) {
  // Strict positive-integer parsing: garbage, negatives, zero, and
  // trailing junk all exit 2 with the command's own usage, before any
  // socket is bound.
  for (const std::string args :
       {"serve --port banana", "serve --port -1", "serve --port 0x50",
        "serve --socket /tmp/kondo_cli_none.sock --cache-mb many",
        "serve --socket /tmp/kondo_cli_none.sock --max-inflight 0"}) {
    const CommandResult result = RunCli(args);
    EXPECT_EQ(result.exit_code, 2) << args << "\n" << result.output;
    EXPECT_NE(result.output.find("kondo serve"), std::string::npos) << args;
    EXPECT_EQ(result.output.find("kondo blast"), std::string::npos) << args;
  }
  // Out-of-range ports are positive integers but still not listenable.
  const CommandResult high = RunCli("serve --port 65536");
  EXPECT_EQ(high.exit_code, 2) << high.output;
}

TEST(CliTest, BlastRejectsGarbageIntFlags) {
  for (const std::string args :
       {"blast --socket /tmp/kondo_cli_none.sock --artifact a.kdp"
        " --clients 1.5",
        "blast --socket /tmp/kondo_cli_none.sock --artifact a.kdp"
        " --requests zero",
        "blast --socket /tmp/kondo_cli_none.sock --artifact a.kdp"
        " --clients -4"}) {
    const CommandResult result = RunCli(args);
    EXPECT_EQ(result.exit_code, 2) << args << "\n" << result.output;
    EXPECT_NE(result.output.find("invalid"), std::string::npos) << args;
    EXPECT_NE(result.output.find("kondo blast"), std::string::npos) << args;
  }
}

TEST(CliTest, ServeRequiresExactlyOneListenAddress) {
  EXPECT_EQ(RunCli("serve").exit_code, 2);
  EXPECT_EQ(
      RunCli("serve --socket /tmp/kondo_cli_none.sock --port 7777").exit_code,
      2);
}

TEST(CliTest, PackUnpackRepackFlow) {
  const std::string kdf = TempPath("cli_pack.kdf");
  const std::string kdp = TempPath("cli_pack.kdp");
  ASSERT_EQ(RunCli("make-data LDC " + kdf).exit_code, 0);
  // Debloat packs D_Θ into the --out package and nothing else.
  const CommandResult debloat =
      RunCli("debloat LDC --data " + kdf + " --out " + kdp + " --jobs 1");
  ASSERT_EQ(debloat.exit_code, 0) << debloat.output;
  EXPECT_NE(debloat.output.find("packed"), std::string::npos)
      << debloat.output;

  // Package bytes do not depend on the worker count.
  const std::string kdp4 = TempPath("cli_pack_jobs4.kdp");
  ASSERT_EQ(
      RunCli("debloat LDC --data " + kdf + " --out " + kdp4 + " --jobs 4")
          .exit_code,
      0);
  EXPECT_EQ(ReadAllBytes(kdp4), ReadAllBytes(kdp));

  // Inspect reports the package's chunk coding and fingerprint.
  const CommandResult stats = RunCli("inspect " + kdp);
  ASSERT_EQ(stats.exit_code, 0) << stats.output;
  EXPECT_NE(stats.output.find("chunks"), std::string::npos) << stats.output;
  EXPECT_NE(stats.output.find("fingerprint"), std::string::npos)
      << stats.output;

  // Repack unpacks --data and, against unchanged data, reuses every chunk
  // and reproduces the package byte for byte.
  const std::string again = TempPath("cli_pack_again.kdp");
  const CommandResult repack =
      RunCli("repack " + kdp + " --data " + kdp + " --out " + again);
  ASSERT_EQ(repack.exit_code, 0) << repack.output;
  EXPECT_NE(repack.output.find("reused"), std::string::npos)
      << repack.output;
  EXPECT_EQ(ReadAllBytes(again), ReadAllBytes(kdp));

  // The separate pack verbs are gone: the package is the only artifact.
  for (const std::string verb : {"pack", "unpack", "pack-stats"}) {
    const CommandResult retired = RunCli(verb + " " + kdp);
    EXPECT_EQ(retired.exit_code, 2) << verb;
    EXPECT_NE(retired.output.find("usage:"), std::string::npos) << verb;
  }
}

TEST(CliTest, PackRejectsGarbageIntFlags) {
  const std::string kdp = TempPath("cli_pack_flags.kdp");
  for (const std::string& args : std::vector<std::string>{
           "repack in.kdp --data " + kdp + " --jobs 0",
           "repack in.kdp --data " + kdp + " --jobs 1.5",
           "debloat LDC --data in.kdf --out " + kdp + " --jobs zero"}) {
    const CommandResult result = RunCli(args);
    EXPECT_EQ(result.exit_code, 2) << args << "\n" << result.output;
    EXPECT_NE(result.output.find("invalid"), std::string::npos) << args;
  }
}

TEST(CliTest, UnpackSurfacesCorruptionNamingTheChunk) {
  const std::string kdf = TempPath("cli_corrupt.kdf");
  const std::string kdp = TempPath("cli_corrupt.kdp");
  const std::string out = TempPath("cli_corrupt_out.kdp");
  ASSERT_EQ(RunCli("make-data LDC " + kdf).exit_code, 0);
  ASSERT_EQ(RunCli("debloat LDC --data " + kdf + " --out " + kdp).exit_code,
            0);

  // Flip one payload byte (past the rank-2 header). Every command that
  // unpacks the package must fail naming the damaged chunk and write
  // nothing.
  std::string bytes = ReadAllBytes(kdp);
  ASSERT_GT(bytes.size(), 60u);
  bytes[45] = static_cast<char>(bytes[45] ^ 0x5a);
  {
    std::FILE* file = std::fopen(kdp.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), file);
    std::fclose(file);
  }
  std::remove(out.c_str());
  const CommandResult repack =
      RunCli("repack " + kdp + " --data " + kdp + " --out " + out);
  EXPECT_EQ(repack.exit_code, 1) << repack.output;
  EXPECT_NE(repack.output.find("KDP chunk"), std::string::npos)
      << repack.output;
  std::FILE* written = std::fopen(out.c_str(), "rb");
  EXPECT_EQ(written, nullptr) << out;
  if (written != nullptr) {
    std::fclose(written);
  }

  const CommandResult replay = RunCli("replay LDC " + kdp + " 3 4");
  EXPECT_EQ(replay.exit_code, 1) << replay.output;
  EXPECT_NE(replay.output.find("KDP chunk"), std::string::npos)
      << replay.output;
}

TEST(CliTest, ReplayReadsOnlyTheChunksItTouches) {
  const std::string kdf = TempPath("cli_lazy.kdf");
  const std::string kdp = TempPath("cli_lazy.kdp");
  ASSERT_EQ(RunCli("make-data LDC " + kdf).exit_code, 0);
  ASSERT_EQ(RunCli("debloat LDC --data " + kdf + " --out " + kdp).exit_code,
            0);

  // Byte 45 lies in chunk 0. Run (32, 32) reads only the 8x8 chunks whose
  // x and y chunk coordinates are in {4, 5} and {10, 11}, so the damage
  // never reaches it; run (3, 4) reads chunk 0 and must fail naming it.
  std::string bytes = ReadAllBytes(kdp);
  ASSERT_GT(bytes.size(), 60u);
  bytes[45] = static_cast<char>(bytes[45] ^ 0x5a);
  {
    std::FILE* file = std::fopen(kdp.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), file);
    std::fclose(file);
  }
  const CommandResult untouched = RunCli("replay LDC " + kdp + " 32 32");
  EXPECT_EQ(untouched.exit_code, 0) << untouched.output;
  const CommandResult touched = RunCli("replay LDC " + kdp + " 3 4");
  EXPECT_EQ(touched.exit_code, 1) << touched.output;
  EXPECT_NE(touched.output.find("KDP chunk"), std::string::npos)
      << touched.output;
}

TEST(CliTest, ClientFetchRefusesNonPackageNames) {
  const std::string pool = TempPath("cli_serve_pool");
  const std::string sock = pool + "/kondo.sock";
  const std::string kdf = TempPath("cli_serve.kdf");
  ASSERT_EQ(RunShell("mkdir -p " + pool + " && rm -f " + sock).exit_code, 0);
  ASSERT_EQ(RunCli("make-data LDC " + kdf).exit_code, 0);
  ASSERT_EQ(RunCli("debloat LDC --data " + kdf + " --out " + pool +
                   "/main.kdp --max-iter 50")
                .exit_code,
            0);

  // Start a daemon on the pool, fetch through `kondo client`, stop it.
  const std::string kondo = KONDO_CLI_BINARY;
  const auto fetch = [&](const std::string& name) {
    return RunShell(
        kondo + " serve --socket " + sock + " --pool " + pool +
        " --jobs 1 >/dev/null 2>&1 & pid=$!; i=0; "
        "while [ ! -S " + sock + " ] && [ $i -lt 200 ]; do "
        "sleep 0.05; i=$((i+1)); done; " +
        kondo + " client fetch " + name + " --range 0:4 --socket " + sock +
        "; rc=$?; kill $pid; wait $pid; exit $rc");
  };
  const CommandResult refused = fetch("main.kdd");
  EXPECT_EQ(refused.exit_code, 1) << refused.output;
  EXPECT_NE(refused.output.find("INVALID_ARGUMENT"), std::string::npos)
      << refused.output;

  const CommandResult served = fetch("main.kdp");
  EXPECT_EQ(served.exit_code, 0) << served.output;
  EXPECT_NE(served.output.find("fetched [0,4) of main.kdp"),
            std::string::npos)
      << served.output;
}

TEST(CliTest, ProvenanceQueryRejectsBadRange) {
  const std::string kel2 = TempPath("cli_prov_bad.kel2");
  WriteKel2Fixture(kel2);
  const CommandResult result =
      RunCli("provenance query " + kel2 + " --range 50:30");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("invalid --range"), std::string::npos);
}

}  // namespace
}  // namespace kondo
