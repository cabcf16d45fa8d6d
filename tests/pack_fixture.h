// Test fixture helper: packs a debloated array into a KDP package the way
// `kondo debloat` ships it, so runtime tests read the same on-disk format
// the user end does.

#ifndef KONDO_TESTS_PACK_FIXTURE_H_
#define KONDO_TESTS_PACK_FIXTURE_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "array/debloated_array.h"
#include "common/logging.h"
#include "pack/pack_reader.h"
#include "pack/pack_writer.h"

namespace kondo {

/// Writes `array` with WriteKdpFile to a path private to the running test
/// case (ctest -j runs cases as concurrent processes, so a shared path would
/// race) and opens it. Aborts when the temp directory is unusable.
inline std::unique_ptr<PackReader> PackForTest(const DebloatedArray& array) {
  static int serial = 0;
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = ::testing::TempDir() + "/" +
                           test->test_suite_name() + "." + test->name() +
                           "." + std::to_string(serial++) + ".kdp";
  const StatusOr<PackStats> written = WriteKdpFile(path, array);
  KONDO_CHECK(written.ok()) << written.status().ToString();
  StatusOr<std::unique_ptr<PackReader>> reader = PackReader::Open(path);
  KONDO_CHECK(reader.ok()) << reader.status().ToString();
  return *std::move(reader);
}

}  // namespace kondo

#endif  // KONDO_TESTS_PACK_FIXTURE_H_
