#include "qdm/net/wire.h"

#include <initializer_list>
#include <optional>
#include <type_traits>
#include <utility>

#include "qdm/common/strings.h"

namespace qdm {
namespace net {

namespace {

using anneal::ChainBreakPolicy;
using anneal::Qubo;
using anneal::Sample;
using anneal::SampleSet;
using anneal::SolverOptions;
using service::JobId;
using service::JobSnapshot;
using service::JobState;

using Type = JsonValue::Type;

/// Whether a decoder needs a member to be present.
enum Presence { kRequired, kOptional };

/// `value`, at `path`, must be of `type`: the one type check of objects,
/// arrays, strings and booleans. Numbers are checked by the As* conversions.
Status CheckType(const JsonValue& value, const JsonPath& path, Type type) {
  if (value.type() == type) return Status::Ok();
  const char* expected = type == Type::kObject   ? "a JSON object"
                         : type == Type::kArray  ? "an array"
                         : type == Type::kString ? "a string"
                                                 : "a boolean";
  return Status::InvalidArgument(StrFormat("%s: expected %s, got %s",
                                           path.ToString().c_str(), expected,
                                           value.TypeName()));
}

/// The member of `object` that the last key of `path` names. An absent
/// member is an error when `presence` is kRequired and nullptr otherwise. A
/// present one must be of `type` when one is given; without one, its reader
/// checks it (the As* conversions, or a decoder such as DecodeQubo).
Result<const JsonValue*> Member(const JsonValue& object, const JsonPath& path,
                                Presence presence,
                                std::optional<Type> type = std::nullopt) {
  const JsonValue* member = object.Find(path.key());
  if (member == nullptr) {
    if (presence == kOptional) return member;
    return Status::InvalidArgument(
        StrFormat("%s: missing required field", path.ToString().c_str()));
  }
  if (type) QDM_RETURN_IF_ERROR(CheckType(*member, path, *type));
  return member;
}

/// Reads the number member at `path` into `*out` (double, int64_t, uint64_t
/// or int, which must also fit in int). An absent optional member leaves
/// `*out` as it is.
template <typename T>
Status NumberMember(const JsonValue& object, const JsonPath& path,
                    Presence presence, T* out) {
  QDM_ASSIGN_OR_RETURN(const JsonValue* value, Member(object, path, presence));
  if (value == nullptr) return Status::Ok();
  if constexpr (std::is_same_v<T, double>) {
    QDM_ASSIGN_OR_RETURN(*out, value->AsDouble(path));
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    QDM_ASSIGN_OR_RETURN(*out, value->AsUint64(path));
  } else {
    QDM_ASSIGN_OR_RETURN(const int64_t wide, value->AsInt64(path));
    if (std::is_same_v<T, int> && (wide < INT32_MIN || wide > INT32_MAX)) {
      return Status::InvalidArgument(
          StrFormat("%s: integer %lld out of int range",
                    path.ToString().c_str(), static_cast<long long>(wide)));
    }
    *out = static_cast<T>(wide);
  }
  return Status::Ok();
}

/// Strict-decode guard: every member of `value` must be in `allowed`.
Status RejectUnknownFields(const JsonValue& value, const JsonPath& field,
                           std::initializer_list<const char*> allowed) {
  for (const auto& [key, unused] : value.members()) {
    bool known = false;
    for (const char* name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument(StrFormat(
          "%s.%s: unknown field", field.ToString().c_str(), key.c_str()));
    }
  }
  return Status::Ok();
}

/// Decodes the {"code", "message"} object at `path` (an error body's
/// "error", a snapshot's "status") into `*out`.
Status DecodeStatus(const JsonValue& object, const JsonPath& path,
                    Status* out) {
  QDM_ASSIGN_OR_RETURN(const JsonValue* status,
                       Member(object, path, kRequired, Type::kObject));
  const JsonPath code_path = path.Key("code");
  QDM_ASSIGN_OR_RETURN(const JsonValue* code,
                       Member(*status, code_path, kRequired, Type::kString));
  StatusCode parsed = StatusCode::kOk;
  if (!StatusCodeFromString(code->string_value(), &parsed)) {
    return Status::InvalidArgument(StrFormat("%s: unknown status code '%s'",
                                             code_path.ToString().c_str(),
                                             code->string_value().c_str()));
  }
  QDM_ASSIGN_OR_RETURN(
      const JsonValue* message,
      Member(*status, path.Key("message"), kRequired, Type::kString));
  *out = Status(parsed, message->string_value());
  return Status::Ok();
}

const char* ChainBreakPolicyName(ChainBreakPolicy policy) {
  switch (policy) {
    case ChainBreakPolicy::kMajorityVote:
      return "majority_vote";
    case ChainBreakPolicy::kMinimizeEnergy:
      return "minimize_energy";
    case ChainBreakPolicy::kDiscard:
      return "discard";
  }
  return "majority_vote";
}

void AppendVersionPrefix(std::string* out) {
  *out += "{\"version\":";
  JsonAppendInteger(kWireVersion, out);
  out->push_back(',');
}

std::string WrapEnvelope(const std::string& fields) {
  std::string out;
  AppendVersionPrefix(&out);
  out += fields;
  out += "}";
  return out;
}

}  // namespace

Result<JsonValue> ParseEnvelope(const std::string& text) {
  if (text.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        StrFormat("payload: %zu bytes exceeds the %zu-byte wire limit",
                  text.size(), kMaxPayloadBytes));
  }
  QDM_ASSIGN_OR_RETURN(JsonValue value, JsonParse(text));
  QDM_RETURN_IF_ERROR(CheckType(value, "envelope", Type::kObject));
  QDM_ASSIGN_OR_RETURN(const JsonValue* version,
                       Member(value, "version", kOptional));
  if (version == nullptr) {
    return Status::InvalidArgument(
        StrFormat("version: missing required field (this endpoint speaks wire "
                  "version %d)",
                  kWireVersion));
  }
  QDM_ASSIGN_OR_RETURN(const int64_t parsed, version->AsInt64("version"));
  if (parsed != kWireVersion) {
    return Status::InvalidArgument(StrFormat(
        "version: unsupported wire version %lld (this endpoint speaks %d)",
        static_cast<long long>(parsed), kWireVersion));
  }
  return value;
}

// -- Qubo ---------------------------------------------------------------------

void AppendQuboJson(const Qubo& qubo, std::string* out) {
  *out += "{\"num_variables\":";
  JsonAppendInteger(qubo.num_variables(), out);
  *out += ",\"offset\":";
  JsonAppendDouble(qubo.offset(), out);
  *out += ",\"linear\":[";
  for (int i = 0; i < qubo.num_variables(); ++i) {
    if (i > 0) out->push_back(',');
    JsonAppendDouble(qubo.linear(i), out);
  }
  *out += "],\"quadratic\":[";
  bool first = true;
  for (const auto& [key, weight] : qubo.quadratic_terms()) {
    if (!first) out->push_back(',');
    first = false;
    out->push_back('[');
    JsonAppendInteger(key.first, out);
    out->push_back(',');
    JsonAppendInteger(key.second, out);
    out->push_back(',');
    JsonAppendDouble(weight, out);
    out->push_back(']');
  }
  *out += "]}";
}

Result<Qubo> DecodeQubo(const JsonValue& value, const JsonPath& field) {
  QDM_RETURN_IF_ERROR(CheckType(value, field, Type::kObject));
  QDM_RETURN_IF_ERROR(RejectUnknownFields(
      value, field, {"num_variables", "offset", "linear", "quadratic"}));

  const JsonPath num_variables_path = field.Key("num_variables");
  int64_t n = 0;
  QDM_RETURN_IF_ERROR(NumberMember(value, num_variables_path, kRequired, &n));
  if (n < 1 || n > kMaxWireVariables) {
    return Status::InvalidArgument(StrFormat(
        "%s: %lld outside [1, %d]", num_variables_path.ToString().c_str(),
        static_cast<long long>(n), kMaxWireVariables));
  }
  Qubo qubo(static_cast<int>(n));

  double offset = 0.0;
  QDM_RETURN_IF_ERROR(
      NumberMember(value, field.Key("offset"), kOptional, &offset));
  qubo.AddOffset(offset);

  const JsonPath linear_path = field.Key("linear");
  QDM_ASSIGN_OR_RETURN(const JsonValue* linear,
                       Member(value, linear_path, kOptional, Type::kArray));
  if (linear != nullptr) {
    const std::vector<JsonValue>& weights = linear->array();
    if (weights.size() != static_cast<size_t>(n)) {
      return Status::InvalidArgument(
          StrFormat("%s: expected %lld entries (one per variable), got %zu",
                    linear_path.ToString().c_str(), static_cast<long long>(n),
                    weights.size()));
    }
    for (size_t i = 0; i < weights.size(); ++i) {
      QDM_ASSIGN_OR_RETURN(const double weight,
                           weights[i].AsDouble(linear_path.Index(i)));
      if (weight != 0.0) qubo.AddLinear(static_cast<int>(i), weight);
    }
  }

  const JsonPath quadratic_path = field.Key("quadratic");
  QDM_ASSIGN_OR_RETURN(const JsonValue* quadratic,
                       Member(value, quadratic_path, kOptional, Type::kArray));
  if (quadratic != nullptr) {
    for (size_t t = 0; t < quadratic->array().size(); ++t) {
      const JsonValue& term = quadratic->array()[t];
      const JsonPath term_path = quadratic_path.Index(t);
      if (term.type() != Type::kArray || term.array().size() != 3) {
        return Status::InvalidArgument(
            StrFormat("%s: expected an [i, j, weight] triple",
                      term_path.ToString().c_str()));
      }
      QDM_ASSIGN_OR_RETURN(const int64_t i,
                           term.array()[0].AsInt64(term_path.Index(0)));
      QDM_ASSIGN_OR_RETURN(const int64_t j,
                           term.array()[1].AsInt64(term_path.Index(1)));
      QDM_ASSIGN_OR_RETURN(const double weight,
                           term.array()[2].AsDouble(term_path.Index(2)));
      if (i < 0 || i >= n || j < 0 || j >= n || i == j) {
        return Status::InvalidArgument(StrFormat(
            "%s: variable pair (%lld, %lld) invalid for %lld variables",
            term_path.ToString().c_str(), static_cast<long long>(i),
            static_cast<long long>(j), static_cast<long long>(n)));
      }
      qubo.AddQuadratic(static_cast<int>(i), static_cast<int>(j), weight);
    }
  }
  return qubo;
}

// -- SolverOptions ------------------------------------------------------------

void AppendSolverOptionsJson(const SolverOptions& options, std::string* out) {
  QDM_CHECK(options.rng == nullptr)
      << "a SolverOptions with a live rng cannot cross the wire (seed-based "
         "randomness only)";
  // Each number follows its key and the separator before it.
  const auto append_int = [out](const char* key, auto value) {
    *out += key;
    JsonAppendInteger(value, out);
  };
  const auto append_double = [out](const char* key, double value) {
    *out += key;
    JsonAppendDouble(value, out);
  };
  append_int("{\"num_reads\":", options.num_reads);
  append_int(",\"seed\":", options.seed);
  append_int(",\"num_sweeps\":", options.num_sweeps);
  append_double(",\"beta_min\":", options.beta_min);
  append_double(",\"beta_max\":", options.beta_max);
  append_int(",\"num_replicas\":", options.num_replicas);
  append_int(",\"swap_interval\":", options.swap_interval);
  append_int(",\"max_iterations\":", options.max_iterations);
  append_int(",\"tenure\":", options.tenure);
  append_int(",\"layers\":", options.layers);
  append_int(",\"restarts\":", options.restarts);
  append_int(",\"max_qubits\":", options.max_qubits);
  append_double(",\"chain_strength\":", options.chain_strength);
  *out += ",\"chain_break_policy\":\"";
  *out += ChainBreakPolicyName(options.chain_break_policy);
  *out += "\"}";
}

Result<SolverOptions> DecodeSolverOptions(const JsonValue& value,
                                          const JsonPath& field) {
  QDM_RETURN_IF_ERROR(CheckType(value, field, Type::kObject));
  QDM_RETURN_IF_ERROR(RejectUnknownFields(
      value, field,
      {"num_reads", "seed", "num_sweeps", "beta_min", "beta_max",
       "num_replicas", "swap_interval", "max_iterations", "tenure", "layers",
       "restarts", "max_qubits", "chain_strength", "chain_break_policy"}));

  // An absent knob keeps its SolverOptions default.
  SolverOptions options;
  const auto knob = [&value, &field](const char* key, auto* out) {
    return NumberMember(value, field.Key(key), kOptional, out);
  };
  QDM_RETURN_IF_ERROR(knob("num_reads", &options.num_reads));
  QDM_RETURN_IF_ERROR(knob("seed", &options.seed));
  QDM_RETURN_IF_ERROR(knob("num_sweeps", &options.num_sweeps));
  QDM_RETURN_IF_ERROR(knob("beta_min", &options.beta_min));
  QDM_RETURN_IF_ERROR(knob("beta_max", &options.beta_max));
  QDM_RETURN_IF_ERROR(knob("num_replicas", &options.num_replicas));
  QDM_RETURN_IF_ERROR(knob("swap_interval", &options.swap_interval));
  QDM_RETURN_IF_ERROR(knob("max_iterations", &options.max_iterations));
  QDM_RETURN_IF_ERROR(knob("tenure", &options.tenure));
  QDM_RETURN_IF_ERROR(knob("layers", &options.layers));
  QDM_RETURN_IF_ERROR(knob("restarts", &options.restarts));
  QDM_RETURN_IF_ERROR(knob("max_qubits", &options.max_qubits));
  QDM_RETURN_IF_ERROR(knob("chain_strength", &options.chain_strength));

  const JsonPath policy_path = field.Key("chain_break_policy");
  QDM_ASSIGN_OR_RETURN(const JsonValue* policy,
                       Member(value, policy_path, kOptional, Type::kString));
  if (policy != nullptr) {
    const std::string& name = policy->string_value();
    if (name == "majority_vote") {
      options.chain_break_policy = ChainBreakPolicy::kMajorityVote;
    } else if (name == "minimize_energy") {
      options.chain_break_policy = ChainBreakPolicy::kMinimizeEnergy;
    } else if (name == "discard") {
      options.chain_break_policy = ChainBreakPolicy::kDiscard;
    } else {
      return Status::InvalidArgument(StrFormat(
          "%s: unknown policy '%s' (majority_vote | minimize_energy | "
          "discard)",
          policy_path.ToString().c_str(), name.c_str()));
    }
  }
  return options;
}

// -- SampleSet ----------------------------------------------------------------

void AppendSampleSetJson(const SampleSet& samples, std::string* out) {
  *out += "{\"samples\":[";
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& sample = samples.samples()[i];
    if (i > 0) out->push_back(',');
    *out += "{\"assignment\":[";
    for (size_t v = 0; v < sample.assignment.size(); ++v) {
      if (v > 0) out->push_back(',');
      JsonAppendInteger(sample.assignment[v], out);
    }
    *out += "],\"energy\":";
    JsonAppendDouble(sample.energy, out);
    *out += ",\"chain_break_fraction\":";
    JsonAppendDouble(sample.chain_break_fraction, out);
    out->push_back('}');
  }
  out->push_back(']');
  // Emitted only when a noisy backend set it, so noiseless payloads stay
  // byte-identical to the v1 wire format.
  if (samples.noise_fidelity() != 1.0) {
    *out += ",\"noise_fidelity\":";
    JsonAppendDouble(samples.noise_fidelity(), out);
  }
  // Same conditional-field discipline: only adaptive:* solves carry a
  // decision record, so every other payload stays byte-identical to the
  // v1 wire format. The record is what makes a remote adaptive solve
  // replayable bit-exactly (anneal::ReplayAdaptiveDecision).
  if (!samples.decision().empty()) {
    *out += ",\"decision\":";
    JsonAppendQuoted(samples.decision(), out);
  }
  out->push_back('}');
}

Result<SampleSet> DecodeSampleSet(const JsonValue& value,
                                  const JsonPath& field) {
  QDM_RETURN_IF_ERROR(CheckType(value, field, Type::kObject));
  QDM_RETURN_IF_ERROR(RejectUnknownFields(
      value, field, {"samples", "noise_fidelity", "decision"}));
  const JsonPath samples_path = field.Key("samples");
  QDM_ASSIGN_OR_RETURN(const JsonValue* samples,
                       Member(value, samples_path, kRequired, Type::kArray));

  std::vector<Sample> decoded;
  decoded.reserve(samples->array().size());
  for (size_t s = 0; s < samples->array().size(); ++s) {
    const JsonValue& entry = samples->array()[s];
    const JsonPath path = samples_path.Index(s);
    QDM_RETURN_IF_ERROR(CheckType(entry, path, Type::kObject));
    QDM_RETURN_IF_ERROR(RejectUnknownFields(
        entry, path, {"assignment", "energy", "chain_break_fraction"}));

    Sample sample;
    const JsonPath assignment_path = path.Key("assignment");
    QDM_ASSIGN_OR_RETURN(
        const JsonValue* assignment,
        Member(entry, assignment_path, kRequired, Type::kArray));
    const std::vector<JsonValue>& bits = assignment->array();
    sample.assignment.reserve(bits.size());
    for (size_t v = 0; v < bits.size(); ++v) {
      QDM_ASSIGN_OR_RETURN(const int64_t bit,
                           bits[v].AsInt64(assignment_path.Index(v)));
      if (bit != 0 && bit != 1) {
        return Status::InvalidArgument(
            StrFormat("%s: expected 0 or 1, got %lld",
                      assignment_path.Index(v).ToString().c_str(),
                      static_cast<long long>(bit)));
      }
      sample.assignment.push_back(static_cast<int>(bit));
    }
    QDM_RETURN_IF_ERROR(
        NumberMember(entry, path.Key("energy"), kRequired, &sample.energy));
    QDM_RETURN_IF_ERROR(NumberMember(entry, path.Key("chain_break_fraction"),
                                     kOptional, &sample.chain_break_fraction));
    decoded.push_back(std::move(sample));
  }

  // SampleSet::Add inserts BEFORE samples of equal energy, so re-adding the
  // (already energy-sorted) wire order back to front reproduces the
  // original vector exactly — including the relative order of ties, which
  // the bit-identity contract covers.
  SampleSet set;
  for (size_t s = decoded.size(); s > 0; --s) {
    set.Add(std::move(decoded[s - 1]));
  }
  double fidelity = 1.0;
  QDM_RETURN_IF_ERROR(
      NumberMember(value, field.Key("noise_fidelity"), kOptional, &fidelity));
  set.set_noise_fidelity(fidelity);
  QDM_ASSIGN_OR_RETURN(
      const JsonValue* decision,
      Member(value, field.Key("decision"), kOptional, Type::kString));
  if (decision != nullptr) set.set_decision(decision->string_value());
  return set;
}

// -- Job submission -----------------------------------------------------------

std::string EncodeJobRequest(const JobRequest& request) {
  std::string fields;
  switch (request.type) {
    case JobRequest::Type::kSubmit: {
      QDM_CHECK(request.qubos.size() == 1) << "submit carries exactly one qubo";
      fields += "\"type\":\"submit\",\"solver\":";
      JsonAppendQuoted(request.solver, &fields);
      fields += ",\"qubo\":";
      AppendQuboJson(request.qubos[0], &fields);
      break;
    }
    case JobRequest::Type::kSubmitBatch: {
      fields += "\"type\":\"submit_batch\",\"solver\":";
      JsonAppendQuoted(request.solver, &fields);
      fields += ",\"qubos\":[";
      for (size_t i = 0; i < request.qubos.size(); ++i) {
        if (i > 0) fields.push_back(',');
        AppendQuboJson(request.qubos[i], &fields);
      }
      fields += "]";
      break;
    }
  }
  fields += ",\"options\":";
  AppendSolverOptionsJson(request.options, &fields);
  if (request.deadline.count() > 0) {
    fields += ",\"deadline_ns\":";
    JsonAppendInteger(request.deadline.count(), &fields);
  }
  return WrapEnvelope(fields);
}

Result<JobRequest> DecodeJobRequest(const std::string& body) {
  QDM_ASSIGN_OR_RETURN(const JsonValue envelope, ParseEnvelope(body));
  const JsonPath request_path = "request";
  QDM_RETURN_IF_ERROR(
      RejectUnknownFields(envelope, request_path,
                          {"version", "type", "solver", "members", "qubo",
                           "qubos", "options", "deadline_ns"}));

  JobRequest request;
  QDM_ASSIGN_OR_RETURN(
      const JsonValue* type,
      Member(envelope, request_path.Key("type"), kRequired, Type::kString));
  const std::string& type_name = type->string_value();
  if (type_name == "submit" || type_name == "submit_race") {
    request.type = JobRequest::Type::kSubmit;
  } else if (type_name == "submit_batch") {
    request.type = JobRequest::Type::kSubmitBatch;
  } else {
    return Status::InvalidArgument(
        StrFormat("request.type: unknown type '%s' (submit | submit_batch | "
                  "submit_race)",
                  type_name.c_str()));
  }

  if (type_name == "submit_race") {
    // Legacy: a race of the listed members is the submit of their "race:"
    // name, which is exactly what the server used to run for it.
    const JsonPath members_path = request_path.Key("members");
    QDM_ASSIGN_OR_RETURN(
        const JsonValue* members,
        Member(envelope, members_path, kRequired, Type::kArray));
    std::vector<std::string> names;
    for (size_t i = 0; i < members->array().size(); ++i) {
      const JsonValue& member = members->array()[i];
      QDM_RETURN_IF_ERROR(
          CheckType(member, members_path.Index(i), Type::kString));
      names.push_back(member.string_value());
    }
    request.solver = "race:" + StrJoin(names, "+");
  } else {
    QDM_ASSIGN_OR_RETURN(
        const JsonValue* solver,
        Member(envelope, request_path.Key("solver"), kRequired, Type::kString));
    request.solver = solver->string_value();
  }

  if (request.type == JobRequest::Type::kSubmitBatch) {
    const JsonPath qubos_path = request_path.Key("qubos");
    QDM_ASSIGN_OR_RETURN(const JsonValue* qubos,
                         Member(envelope, qubos_path, kRequired, Type::kArray));
    for (size_t i = 0; i < qubos->array().size(); ++i) {
      QDM_ASSIGN_OR_RETURN(Qubo qubo,
                           DecodeQubo(qubos->array()[i], qubos_path.Index(i)));
      request.qubos.push_back(std::move(qubo));
    }
  } else {
    const JsonPath qubo_path = request_path.Key("qubo");
    QDM_ASSIGN_OR_RETURN(const JsonValue* qubo,
                         Member(envelope, qubo_path, kRequired));
    QDM_ASSIGN_OR_RETURN(Qubo decoded, DecodeQubo(*qubo, qubo_path));
    request.qubos.push_back(std::move(decoded));
  }

  const JsonPath options_path = request_path.Key("options");
  QDM_ASSIGN_OR_RETURN(const JsonValue* options,
                       Member(envelope, options_path, kOptional));
  if (options != nullptr) {
    QDM_ASSIGN_OR_RETURN(request.options,
                         DecodeSolverOptions(*options, options_path));
  }
  uint64_t deadline_ns = 0;
  QDM_RETURN_IF_ERROR(NumberMember(envelope, request_path.Key("deadline_ns"),
                                   kOptional, &deadline_ns));
  if (deadline_ns > static_cast<uint64_t>(INT64_MAX)) {
    return Status::InvalidArgument(
        "request.deadline_ns: exceeds int64 nanoseconds");
  }
  request.deadline =
      std::chrono::nanoseconds(static_cast<int64_t>(deadline_ns));
  return request;
}

// -- Response bodies ----------------------------------------------------------

std::string EncodeErrorBody(const Status& status) {
  std::string fields = "\"error\":{\"code\":";
  JsonAppendQuoted(StatusCodeToString(status.code()), &fields);
  fields += ",\"message\":";
  JsonAppendQuoted(status.message(), &fields);
  fields += "}";
  return WrapEnvelope(fields);
}

Status DecodeErrorBody(const std::string& body, Status* remote) {
  QDM_ASSIGN_OR_RETURN(const JsonValue envelope, ParseEnvelope(body));
  return DecodeStatus(envelope, "error", remote);
}

std::string EncodeSubmitResponse(JobId id) {
  return WrapEnvelope(
      StrFormat("\"id\":%llu", static_cast<unsigned long long>(id)));
}

Result<JobId> DecodeSubmitResponse(const std::string& body) {
  QDM_ASSIGN_OR_RETURN(const JsonValue envelope, ParseEnvelope(body));
  JobId id = 0;
  QDM_RETURN_IF_ERROR(
      NumberMember(envelope, JsonPath("response").Key("id"), kRequired, &id));
  return id;
}

std::string EncodeSnapshotResponse(const JobSnapshot& snapshot) {
  std::string fields =
      StrFormat("\"id\":%llu,\"state\":\"%s\",\"status\":{\"code\":",
                static_cast<unsigned long long>(snapshot.id),
                JobStateToString(snapshot.state));
  JsonAppendQuoted(StatusCodeToString(snapshot.status.code()), &fields);
  fields += ",\"message\":";
  JsonAppendQuoted(snapshot.status.message(), &fields);
  fields += "}";
  return WrapEnvelope(fields);
}

Result<JobSnapshot> DecodeSnapshotResponse(const std::string& body) {
  QDM_ASSIGN_OR_RETURN(const JsonValue envelope, ParseEnvelope(body));
  const JsonPath response_path = "response";
  JobSnapshot snapshot;
  QDM_RETURN_IF_ERROR(
      NumberMember(envelope, response_path.Key("id"), kRequired, &snapshot.id));
  QDM_ASSIGN_OR_RETURN(
      const JsonValue* state,
      Member(envelope, response_path.Key("state"), kRequired, Type::kString));
  if (!JobStateFromString(state->string_value(), &snapshot.state)) {
    return Status::InvalidArgument(
        StrFormat("response.state: unknown job state '%s'",
                  state->string_value().c_str()));
  }
  QDM_RETURN_IF_ERROR(
      DecodeStatus(envelope, response_path.Key("status"), &snapshot.status));
  return snapshot;
}

std::string EncodeResultsResponse(const std::vector<SampleSet>& results) {
  std::string fields = "\"results\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) fields.push_back(',');
    AppendSampleSetJson(results[i], &fields);
  }
  fields += "]";
  return WrapEnvelope(fields);
}

Result<std::vector<SampleSet>> DecodeResultsResponse(const std::string& body) {
  QDM_ASSIGN_OR_RETURN(const JsonValue envelope, ParseEnvelope(body));
  const JsonPath response_path = "response";
  const JsonPath path = response_path.Key("results");
  QDM_ASSIGN_OR_RETURN(const JsonValue* results,
                       Member(envelope, path, kRequired, Type::kArray));
  std::vector<SampleSet> decoded;
  decoded.reserve(results->array().size());
  for (size_t i = 0; i < results->array().size(); ++i) {
    QDM_ASSIGN_OR_RETURN(SampleSet set,
                         DecodeSampleSet(results->array()[i], path.Index(i)));
    decoded.push_back(std::move(set));
  }
  return decoded;
}

std::string EncodeCancelResponse(JobId id) {
  return WrapEnvelope(StrFormat("\"id\":%llu,\"cancelled\":true",
                                static_cast<unsigned long long>(id)));
}

std::string EncodeSolversResponse(const std::vector<std::string>& names) {
  std::string fields = "\"solvers\":[";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) fields.push_back(',');
    JsonAppendQuoted(names[i], &fields);
  }
  fields += "]";
  return WrapEnvelope(fields);
}

Result<std::vector<std::string>> DecodeSolversResponse(
    const std::string& body) {
  QDM_ASSIGN_OR_RETURN(const JsonValue envelope, ParseEnvelope(body));
  const JsonPath response_path = "response";
  const JsonPath path = response_path.Key("solvers");
  QDM_ASSIGN_OR_RETURN(const JsonValue* solvers,
                       Member(envelope, path, kRequired, Type::kArray));
  std::vector<std::string> names;
  names.reserve(solvers->array().size());
  for (size_t i = 0; i < solvers->array().size(); ++i) {
    const JsonValue& name = solvers->array()[i];
    QDM_RETURN_IF_ERROR(CheckType(name, path.Index(i), Type::kString));
    names.push_back(name.string_value());
  }
  return names;
}

std::string EncodeStatsResponse(const StatsResponse& response) {
  const service::ServiceStats& s = response.stats;
  std::string fields = StrFormat(
      "\"stats\":{\"submitted\":%llu,\"rejected\":%llu,\"queued\":%llu,"
      "\"running\":%llu,\"completed\":%llu,\"cancelled\":%llu,"
      "\"deadline_exceeded\":%llu},\"accepting\":%s,\"num_workers\":%d",
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.rejected),
      static_cast<unsigned long long>(s.queued),
      static_cast<unsigned long long>(s.running),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.cancelled),
      static_cast<unsigned long long>(s.deadline_exceeded),
      response.accepting ? "true" : "false", response.num_workers);
  return WrapEnvelope(fields);
}

Result<StatsResponse> DecodeStatsResponse(const std::string& body) {
  QDM_ASSIGN_OR_RETURN(const JsonValue envelope, ParseEnvelope(body));
  const JsonPath response_path = "response";
  const JsonPath stats_path = response_path.Key("stats");
  QDM_ASSIGN_OR_RETURN(const JsonValue* stats,
                       Member(envelope, stats_path, kRequired, Type::kObject));
  StatsResponse response;
  struct Field {
    const char* key;
    uint64_t* slot;
  };
  const Field fields[] = {
      {"submitted", &response.stats.submitted},
      {"rejected", &response.stats.rejected},
      {"queued", &response.stats.queued},
      {"running", &response.stats.running},
      {"completed", &response.stats.completed},
      {"cancelled", &response.stats.cancelled},
      {"deadline_exceeded", &response.stats.deadline_exceeded},
  };
  for (const Field& field : fields) {
    QDM_RETURN_IF_ERROR(
        NumberMember(*stats, stats_path.Key(field.key), kRequired, field.slot));
  }
  QDM_ASSIGN_OR_RETURN(
      const JsonValue* accepting,
      Member(envelope, response_path.Key("accepting"), kRequired, Type::kBool));
  response.accepting = accepting->bool_value();
  QDM_RETURN_IF_ERROR(NumberMember(envelope, response_path.Key("num_workers"),
                                   kOptional, &response.num_workers));
  return response;
}

std::string EncodeHealthResponse(bool accepting) {
  return WrapEnvelope(StrFormat("\"status\":\"serving\",\"accepting\":%s",
                                accepting ? "true" : "false"));
}

}  // namespace net
}  // namespace qdm
