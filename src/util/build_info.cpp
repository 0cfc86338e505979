#include "util/build_info.hpp"

#include "util/strings.hpp"

namespace iecd::util {

namespace {

#ifndef IECD_GIT_SHA
#define IECD_GIT_SHA "unknown"
#endif
#ifndef IECD_CXX_FLAGS
#define IECD_CXX_FLAGS ""
#endif
#ifndef IECD_BUILD_TYPE
#define IECD_BUILD_TYPE "unknown"
#endif

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

const BuildInfo& build_info() {
  static const BuildInfo info{IECD_GIT_SHA, compiler_id(), IECD_CXX_FLAGS,
                              IECD_BUILD_TYPE};
  return info;
}

std::string build_info_json() {
  const BuildInfo& b = build_info();
  return "{\"git_sha\":\"" + json_escape(b.git_sha) + "\",\"compiler\":\"" +
         json_escape(b.compiler) + "\",\"flags\":\"" + json_escape(b.flags) +
         "\",\"build_type\":\"" + json_escape(b.build_type) + "\"}";
}

}  // namespace iecd::util
