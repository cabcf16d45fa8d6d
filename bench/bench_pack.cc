// KDP packaging benchmark: on-disk size of the chunked package versus the
// dense KDF source array on a stencil workload, and parallel unpack
// throughput at 1..8 codec workers. Emits BENCH_pack.json in the working
// directory.
//
// Latency model. Each chunk decode carries a deterministic blocking sleep
// (PackReadOptions::chunk_fetch_sleep_micros) modelling the cold-store
// fetch a production unpack pays per chunk — the same device-latency model
// bench_serve uses per request. A *sleep*, not a busy-wait: blocked codec
// workers overlap their waits even on one hardware thread, so the jobs
// sweep measures how well Unpack pipelines independent chunk fetches, not
// how many cores the CI box has.
//
// Gates: package >= 4x smaller on disk than the dense KDF; >= 2x unpack
// speedup at jobs=8 vs jobs=1; re-packing the unpacked D_Θ reproduces the
// package byte for byte, both after pack -> unpack and after pack -> repack
// -> unpack; repack of unchanged data byte-identical to the fresh package
// with every chunk reused.
//
// Knobs: KONDO_BENCH_PACK_SLEEP_MICROS  per-chunk model sleep (default 300)
//        KONDO_BENCH_PACK_REPS          timing reps, best-of (default 3)
//        KONDO_BENCH_PACK_PROGRAM       stencil program (default LDC)

#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "array/data_array.h"
#include "array/debloated_array.h"
#include "array/index_set.h"
#include "array/kdf_file.h"
#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "pack/pack_reader.h"
#include "pack/pack_writer.h"
#include "workloads/registry.h"

namespace kondo {
namespace {

constexpr int kJobs[] = {1, 2, 4, 8};

struct UnpackRun {
  int jobs = 0;
  double seconds = 0.0;
  double speedup = 1.0;  // vs the jobs=1 leg.
};

int64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size)
                                        : -1;
}

std::string ReadFileBytes(const std::string& path) {
  std::string bytes;
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return bytes;
  }
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
    bytes.append(buffer, n);
  }
  std::fclose(in);
  return bytes;
}

/// True when re-packing the D_Θ unpacked from `kdp_path` (into
/// `scratch_path`) reproduces `reference_bytes` exactly.
bool RepacksIdentically(const std::string& kdp_path,
                        const std::string& scratch_path,
                        const std::string& reference_bytes) {
  const StatusOr<std::unique_ptr<PackReader>> reader =
      PackReader::Open(kdp_path);
  if (!reader.ok()) {
    return false;
  }
  const StatusOr<DebloatedArray> unpacked = (*reader)->Unpack();
  return unpacked.ok() && WriteKdpFile(scratch_path, *unpacked).ok() &&
         ReadFileBytes(scratch_path) == reference_bytes;
}

void WriteJson(const std::string& program, int64_t kdf_bytes,
               int64_t kdp_bytes, double size_reduction,
               const PackStats& stats, int64_t sleep_micros,
               const std::vector<UnpackRun>& runs, bool unpack_identical,
               bool repack_identical, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"pack\",\n"
               "  \"program\": \"%s\",\n"
               "  \"dense_kdf_bytes\": %lld,\n"
               "  \"kdp_bytes\": %lld,\n"
               "  \"size_reduction_vs_kdf\": %.2f,\n"
               "  \"chunks\": {\"total\": %lld, \"hole\": %lld, "
               "\"coded\": %lld, \"raw\": %lld},\n"
               "  \"chunk_fetch_sleep_micros\": %lld,\n"
               "  \"unpack_byte_identical\": %s,\n"
               "  \"repack_byte_identical\": %s,\n"
               "  \"unpack_runs\": [\n",
               program.c_str(), static_cast<long long>(kdf_bytes),
               static_cast<long long>(kdp_bytes), size_reduction,
               static_cast<long long>(stats.total_chunks),
               static_cast<long long>(stats.hole_chunks),
               static_cast<long long>(stats.coded_chunks),
               static_cast<long long>(stats.raw_chunks),
               static_cast<long long>(sleep_micros),
               unpack_identical ? "true" : "false",
               repack_identical ? "true" : "false");
  for (size_t i = 0; i < runs.size(); ++i) {
    std::fprintf(f,
                 "    {\"jobs\": %d, \"seconds\": %.6f, "
                 "\"speedup_vs_1\": %.4f}%s\n",
                 runs[i].jobs, runs[i].seconds, runs[i].speedup,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int Run() {
  const int64_t sleep_micros =
      bench::EnvInt("KONDO_BENCH_PACK_SLEEP_MICROS", 300);
  const int reps =
      static_cast<int>(bench::EnvInt("KONDO_BENCH_PACK_REPS", 3));
  const char* program_env = std::getenv("KONDO_BENCH_PACK_PROGRAM");
  const std::string program_name =
      program_env != nullptr ? program_env : "LDC";

  const std::unique_ptr<Program> program = CreateProgram(program_name);
  if (program == nullptr) {
    std::fprintf(stderr, "unknown program %s\n", program_name.c_str());
    return 1;
  }

  // The stencil's source array (dense) and its carved D_Θ: the ground
  // truth I'_Θ is exactly what the carve pipeline converges to.
  DataArray data(program->data_shape());
  data.FillPattern(/*seed=*/42);
  const DebloatedArray debloated =
      DebloatedArray::FromDataArray(data, program->GroundTruth());

  const std::string kdf_path = "bench_pack_dense.kdf";
  const std::string kdp_path = "bench_pack_dtheta.kdp";
  const std::string repack_path = "bench_pack_repacked.kdp";
  const std::string scratch_path = "bench_pack_scratch.kdp";
  if (!WriteKdfFile(kdf_path, data).ok()) {
    std::fprintf(stderr, "cannot write the dense baseline\n");
    return 1;
  }

  const StatusOr<PackStats> packed = WriteKdpFile(kdp_path, debloated);
  if (!packed.ok()) {
    std::fprintf(stderr, "pack failed: %s\n",
                 packed.status().ToString().c_str());
    return 1;
  }

  const int64_t kdf_bytes = FileSize(kdf_path);
  const int64_t kdp_bytes = FileSize(kdp_path);
  const double size_reduction =
      kdp_bytes > 0 ? static_cast<double>(kdf_bytes) /
                          static_cast<double>(kdp_bytes)
                    : 0.0;
  std::printf("%s: dense KDF %lld B, D_theta KDP %lld B "
              "(%.2fx smaller than KDF)\n",
              program_name.c_str(), static_cast<long long>(kdf_bytes),
              static_cast<long long>(kdp_bytes), size_reduction);
  std::printf("chunks: %lld total, %lld holes, %lld coded, %lld raw; "
              "%lld -> %lld payload bytes\n",
              static_cast<long long>(packed->total_chunks),
              static_cast<long long>(packed->hole_chunks),
              static_cast<long long>(packed->coded_chunks),
              static_cast<long long>(packed->raw_chunks),
              static_cast<long long>(packed->decoded_bytes),
              static_cast<long long>(packed->encoded_bytes));

  // Unpack identity: pack -> unpack -> pack reproduces the package.
  const std::string kdp_bytes_on_disk = ReadFileBytes(kdp_path);
  const bool unpack_identical =
      RepacksIdentically(kdp_path, scratch_path, kdp_bytes_on_disk);

  // Repack identity: repack of unchanged data is byte-identical with every
  // chunk reused, and still unpacks to the same D_Θ.
  bool repack_identical = false;
  {
    const StatusOr<PackStats> repacked =
        RepackKdpFile(kdp_path, repack_path, debloated);
    if (!repacked.ok()) {
      std::fprintf(stderr, "repack failed: %s\n",
                   repacked.status().ToString().c_str());
      return 1;
    }
    repack_identical =
        ReadFileBytes(repack_path) == kdp_bytes_on_disk &&
        repacked->chunks_reused == repacked->total_chunks &&
        RepacksIdentically(repack_path, scratch_path, kdp_bytes_on_disk);
  }

  // Parallel unpack sweep under the per-chunk fetch-sleep model.
  PackReadOptions read_options;
  read_options.chunk_fetch_sleep_micros = sleep_micros;
  std::vector<UnpackRun> runs;
  for (int jobs : kJobs) {
    const StatusOr<std::unique_ptr<PackReader>> reader =
        PackReader::Open(kdp_path, read_options);
    if (!reader.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   reader.status().ToString().c_str());
      return 1;
    }
    UnpackRun run;
    run.jobs = jobs;
    for (int rep = 0; rep < reps; ++rep) {
      Stopwatch timer;
      const StatusOr<DebloatedArray> unpacked =
          (*reader)->Unpack(nullptr, jobs);
      const double seconds = timer.ElapsedSeconds();
      if (!unpacked.ok()) {
        std::fprintf(stderr, "unpack at jobs=%d failed: %s\n", jobs,
                     unpacked.status().ToString().c_str());
        return 1;
      }
      if (rep == 0 || seconds < run.seconds) {
        run.seconds = seconds;
      }
    }
    run.speedup = runs.empty() ? 1.0 : runs.front().seconds / run.seconds;
    runs.push_back(run);
    std::printf("jobs=%d  %.4f s  speedup %5.2fx\n", jobs, run.seconds,
                run.speedup);
  }

  WriteJson(program_name, kdf_bytes, kdp_bytes, size_reduction,
            *packed, sleep_micros, runs, unpack_identical, repack_identical,
            "BENCH_pack.json");

  // Acceptance gates.
  bool ok = true;
  if (size_reduction < 4.0) {
    std::fprintf(stderr, "FAIL: size reduction %.2fx < 4.0x vs dense KDF\n",
                 size_reduction);
    ok = false;
  }
  if (!unpack_identical) {
    std::fprintf(stderr, "FAIL: pack -> unpack -> pack not byte-identical\n");
    ok = false;
  }
  if (!repack_identical) {
    std::fprintf(stderr, "FAIL: pack -> repack -> unpack -> pack not "
                         "byte-identical\n");
    ok = false;
  }
  for (const UnpackRun& run : runs) {
    if (run.jobs == 8 && run.speedup < 2.0) {
      std::fprintf(stderr, "FAIL: jobs=8 unpack speedup %.2fx < 2.0x\n",
                   run.speedup);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace kondo

int main() { return kondo::Run(); }
