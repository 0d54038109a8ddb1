// Stable printers for the parameters of value-parameterized test suites.
//
// gtest names a case whose parameter type has no printer after a byte dump
// of the parameter ("24-byte object <02-00 ...>"), and gtest_discover_tests
// bakes that dump into the ctest name at build time. Padding bytes are
// indeterminate and pointers move with address-space randomization, so such
// names changed from build to build. A PrintTo built on print_fields()
// prints the same dump over a zeroed copy that holds only the listed
// fields: the name keeps its form, the listed fields keep their bytes, and
// padding and unlisted fields (pointers) read as zeros in every build.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <ostream>
#include <type_traits>

namespace hal::test_support {

template <typename T, typename... F>
void print_fields(const T& value, std::ostream* os, F T::*... fields) {
  static_assert(std::is_trivially_copyable_v<T>);
  unsigned char bytes[sizeof(T)] = {};
  const auto* base = reinterpret_cast<const unsigned char*>(&value);
  const auto copy = [&](const auto& field) {
    const auto* at = reinterpret_cast<const unsigned char*>(&field);
    std::memcpy(bytes + (at - base), at, sizeof field);
  };
  (copy(value.*fields), ...);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

}  // namespace hal::test_support
