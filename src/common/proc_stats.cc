#include "common/proc_stats.h"

#include <cstdio>
#include <cstring>

namespace fairkm {
namespace {

// Reads one "Vm...:  <kB> kB" line from /proc/self/status. Returns 0 when
// the file or the field is missing (non-Linux, restricted procfs).
size_t ReadStatusFieldBytes(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  const size_t field_len = std::strlen(field);
  char line[256];
  size_t bytes = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 && line[field_len] == ':') {
      unsigned long long kb = 0;
      if (std::sscanf(line + field_len + 1, "%llu", &kb) == 1) {
        bytes = static_cast<size_t>(kb) * 1024;
      }
      break;
    }
  }
  std::fclose(f);
  return bytes;
}

}  // namespace

size_t PeakRssBytes() { return ReadStatusFieldBytes("VmHWM"); }

}  // namespace fairkm
