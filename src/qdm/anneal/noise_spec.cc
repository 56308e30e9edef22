#include "qdm/anneal/noise_spec.h"

#include <cstdlib>
#include <vector>

#include "qdm/common/strings.h"

namespace qdm {
namespace anneal {

namespace {

/// Parses one probability field of `token`, rejecting non-numeric text and
/// values outside [0, 1] with the full token in the message.
Result<double> ParseRate(const std::string& token, const std::string& field) {
  if (field.empty()) {
    return Status::InvalidArgument(
        StrFormat("noise model '%s' has an empty rate", token.c_str()));
  }
  const char* begin = field.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end != begin + field.size()) {
    return Status::InvalidArgument(
        StrFormat("noise model '%s' has unparseable rate '%s'", token.c_str(),
                  field.c_str()));
  }
  if (!(value >= 0.0 && value <= 1.0)) {
    return Status::InvalidArgument(StrFormat(
        "noise model '%s' rate %g outside [0, 1]", token.c_str(), value));
  }
  return value;
}

}  // namespace

bool NoiseSpec::IsNoiseless() const {
  if (channel == NoiseChannel::kNone) return true;
  if (channel == NoiseChannel::kPauli) {
    return px == 0.0 && py == 0.0 && pz == 0.0;
  }
  return p == 0.0;
}

std::string NoiseSpec::ToString() const {
  switch (channel) {
    case NoiseChannel::kNone:
      return "none";
    case NoiseChannel::kDepolarizing:
      return StrFormat("depol@%g", p);
    case NoiseChannel::kPauli:
      return StrFormat("pauli@%g,%g,%g", px, py, pz);
    case NoiseChannel::kAmplitudeDamping:
      return StrFormat("damp@%g", p);
    case NoiseChannel::kPhaseDamping:
      return StrFormat("phase@%g", p);
    case NoiseChannel::kReadout:
      return StrFormat("readout@%g", p);
  }
  return "none";
}

Result<NoiseSpec> ParseNoiseSpec(const std::string& token) {
  if (token.empty()) {
    return Status::InvalidArgument(
        "noise model token is empty ('<channel>@<rate>' expected)");
  }
  const size_t at = token.find('@');
  if (at == std::string::npos) {
    return Status::InvalidArgument(StrFormat(
        "noise model '%s' is missing its '@<rate>' parameter", token.c_str()));
  }
  const std::string channel = token.substr(0, at);
  const std::string rates = token.substr(at + 1);

  NoiseSpec spec;
  if (channel == "depol") {
    spec.channel = NoiseChannel::kDepolarizing;
  } else if (channel == "pauli") {
    spec.channel = NoiseChannel::kPauli;
  } else if (channel == "damp") {
    spec.channel = NoiseChannel::kAmplitudeDamping;
  } else if (channel == "phase") {
    spec.channel = NoiseChannel::kPhaseDamping;
  } else if (channel == "readout") {
    spec.channel = NoiseChannel::kReadout;
  } else {
    return Status::InvalidArgument(StrFormat(
        "noise model '%s' names unknown channel '%s' (known: damp, depol, "
        "pauli, phase, readout)",
        token.c_str(), channel.c_str()));
  }

  if (spec.channel == NoiseChannel::kPauli) {
    const std::vector<std::string> fields = StrSplit(rates, ',');
    if (fields.size() != 3) {
      return Status::InvalidArgument(
          StrFormat("noise model '%s' needs three ','-separated rates "
                    "('pauli@<px>,<py>,<pz>')",
                    token.c_str()));
    }
    QDM_ASSIGN_OR_RETURN(spec.px, ParseRate(token, fields[0]));
    QDM_ASSIGN_OR_RETURN(spec.py, ParseRate(token, fields[1]));
    QDM_ASSIGN_OR_RETURN(spec.pz, ParseRate(token, fields[2]));
    if (spec.px + spec.py + spec.pz > 1.0) {
      return Status::InvalidArgument(
          StrFormat("noise model '%s' rates sum to %g > 1", token.c_str(),
                    spec.px + spec.py + spec.pz));
    }
    return spec;
  }
  QDM_ASSIGN_OR_RETURN(spec.p, ParseRate(token, rates));
  return spec;
}

}  // namespace anneal
}  // namespace qdm
