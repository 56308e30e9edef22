#include "qdm/anneal/topology.h"

#include <cstdlib>

#include "qdm/anneal/chimera.h"
#include "qdm/anneal/pegasus.h"
#include "qdm/anneal/zephyr.h"
#include "qdm/common/strings.h"

namespace qdm {
namespace anneal {

std::vector<std::vector<int>> TriadCliqueChains(
    int num_logical, int shore,
    const std::function<int(int r, int c, int k)>& vertical,
    const std::function<int(int r, int c, int k)>& horizontal) {
  std::vector<std::vector<int>> chains(num_logical);
  const int used = (num_logical + shore - 1) / shore;
  for (int i = 0; i < num_logical; ++i) {
    const int block = i / shore;
    const int offset = i % shore;
    // Vertical run: column `block`, all rows of the used square.
    for (int r = 0; r < used; ++r) {
      chains[i].push_back(vertical(r, block, offset));
    }
    // Horizontal run: row `block`, all columns of the used square.
    for (int c = 0; c < used; ++c) {
      chains[i].push_back(horizontal(block, c, offset));
    }
  }
  return chains;
}

namespace {

/// Parses a full positive decimal integer; false on junk, overflow, or
/// value < 1. Stricter than bare strtol: leading whitespace or sign
/// characters are junk too ("+6", " 4" are not grammar-conforming specs).
bool ParsePositiveInt(const std::string& text, int* out) {
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size()) return false;
  if (value < 1 || value > 1 << 20) return false;
  *out = static_cast<int>(value);
  return true;
}

Status BadSpec(const std::string& spec, const char* why) {
  return Status::InvalidArgument(StrFormat(
      "malformed topology spec '%s': %s (grammar: chimera:<rows>x<cols>x"
      "<shore> | pegasus:<m> | zephyr:<m>[x<t>])",
      spec.c_str(), why));
}

/// Rejects specs whose qubit count would not fit comfortably in int (the
/// dense-id space of HardwareTopology). `count` is computed by the caller
/// in 64-bit arithmetic, so grammatically valid but absurd dimensions
/// surface here as InvalidArgument instead of as signed overflow inside
/// num_qubits().
constexpr long long kMaxQubits = 1LL << 24;

Status CheckQubitCount(const std::string& spec, long long count) {
  if (count > kMaxQubits) {
    return Status::InvalidArgument(
        StrFormat("topology spec '%s' describes %lld qubits, above the %lld "
                  "limit",
                  spec.c_str(), count, kMaxQubits));
  }
  return Status::Ok();
}

}  // namespace

Result<std::unique_ptr<HardwareTopology>> MakeTopology(
    const std::string& spec) {
  const size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
    return BadSpec(spec, "expected '<family>:<dimensions>'");
  }
  const std::string family = spec.substr(0, colon);
  const std::vector<std::string> dims = StrSplit(spec.substr(colon + 1), 'x');

  if (family == "chimera") {
    int rows, cols, shore;
    if (dims.size() != 3 || !ParsePositiveInt(dims[0], &rows) ||
        !ParsePositiveInt(dims[1], &cols) ||
        !ParsePositiveInt(dims[2], &shore)) {
      return BadSpec(spec, "chimera needs three positive dimensions RxCxL");
    }
    QDM_RETURN_IF_ERROR(CheckQubitCount(spec, 2LL * rows * cols * shore));
    return std::unique_ptr<HardwareTopology>(
        std::make_unique<ChimeraGraph>(rows, cols, shore));
  }
  if (family == "pegasus") {
    int m;
    if (dims.size() != 1 || !ParsePositiveInt(dims[0], &m)) {
      return BadSpec(spec, "pegasus needs one positive dimension <m>");
    }
    if (m < 2) return BadSpec(spec, "pegasus requires m >= 2");
    QDM_RETURN_IF_ERROR(CheckQubitCount(spec, 24LL * m * (m - 1)));
    return std::unique_ptr<HardwareTopology>(std::make_unique<PegasusGraph>(m));
  }
  if (family == "zephyr") {
    int m, t = 4;
    if (dims.empty() || dims.size() > 2 || !ParsePositiveInt(dims[0], &m) ||
        (dims.size() == 2 && !ParsePositiveInt(dims[1], &t))) {
      return BadSpec(spec, "zephyr needs dimensions <m> or <m>x<t>");
    }
    // Two-step product: 4*t*m is at most 2^42 for in-cap dimensions, so
    // checking it first keeps the full count below 2^46 — multiplying the
    // three factors at once could overflow long long before the guard runs.
    long long count = 4LL * t * m;
    if (count <= kMaxQubits) count *= 2LL * m + 1;
    QDM_RETURN_IF_ERROR(CheckQubitCount(spec, count));
    return std::unique_ptr<HardwareTopology>(
        std::make_unique<ZephyrGraph>(m, t));
  }
  return BadSpec(spec, "unknown family");
}

}  // namespace anneal
}  // namespace qdm
