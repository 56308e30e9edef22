// Wire-format battery for qdm/net: (1) round-trip property tests — every
// codec in wire.h reproduces its input BIT-identically (doubles compared
// by representation, not by value, so even -0.0 and denormals count) for
// randomized and degenerate instances; (2) the malformed-input taxonomy —
// truncated JSON, wrong types, unknown versions and fields, NaN/Inf,
// oversized payloads, and out-of-range indices are all rejected with
// InvalidArgument naming the offending field by its dotted path.

#include "qdm/net/wire.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "qdm/anneal/qubo.h"
#include "qdm/anneal/sampler.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/status.h"
#include "qdm/common/strings.h"
#include "qdm/net/json.h"
#include "qdm/service/job.h"

namespace qdm {
namespace net {
namespace {

using anneal::BitIdentical;
using anneal::ChainBreakPolicy;
using anneal::Qubo;
using anneal::Sample;
using anneal::SampleSet;
using anneal::SolverOptions;
using service::JobSnapshot;
using service::JobState;

/// Representation equality: the round-trip contract is about bits, and
/// operator== on doubles would wave through -0.0 vs 0.0 (and trip on any
/// NaN that sneaked in).
bool BitEqual(double a, double b) {
  uint64_t ra = 0;
  uint64_t rb = 0;
  std::memcpy(&ra, &a, sizeof(ra));
  std::memcpy(&rb, &b, sizeof(rb));
  return ra == rb;
}

Qubo MakeQubo(int num_variables, uint64_t seed) {
  Rng rng(seed);
  Qubo qubo(num_variables);
  for (int i = 0; i < num_variables; ++i) {
    qubo.AddLinear(i, rng.Uniform(-1, 1));
    for (int j = i + 1; j < num_variables; ++j) {
      qubo.AddQuadratic(i, j, rng.Uniform(-1, 1));
    }
  }
  return qubo;
}

bool QubosBitEqual(const Qubo& a, const Qubo& b) {
  if (a.num_variables() != b.num_variables()) return false;
  if (!BitEqual(a.offset(), b.offset())) return false;
  for (int i = 0; i < a.num_variables(); ++i) {
    if (!BitEqual(a.linear(i), b.linear(i))) return false;
  }
  if (a.quadratic_terms().size() != b.quadratic_terms().size()) return false;
  auto it_a = a.quadratic_terms().begin();
  auto it_b = b.quadratic_terms().begin();
  for (; it_a != a.quadratic_terms().end(); ++it_a, ++it_b) {
    if (it_a->first != it_b->first) return false;
    if (!BitEqual(it_a->second, it_b->second)) return false;
  }
  return true;
}

Qubo RoundTripQubo(const Qubo& qubo) {
  std::string text;
  AppendQuboJson(qubo, &text);
  Result<JsonValue> parsed = JsonParse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  Result<Qubo> decoded = DecodeQubo(*parsed, "qubo");
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  return *decoded;
}

SampleSet RoundTripSampleSet(const SampleSet& samples) {
  std::string text;
  AppendSampleSetJson(samples, &text);
  Result<JsonValue> parsed = JsonParse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  Result<SampleSet> decoded = DecodeSampleSet(*parsed, "set");
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  return *decoded;
}

/// Asserts `result` is InvalidArgument and its message names `field`.
template <typename T>
void ExpectRejected(const Result<T>& result, const std::string& field) {
  ASSERT_FALSE(result.ok()) << "expected rejection naming " << field;
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status();
  EXPECT_NE(result.status().message().find(field), std::string::npos)
      << "message '" << result.status().message() << "' does not name '"
      << field << "'";
}

// ---------------------------------------------------------------------------
// Round trips: doubles and integers.
// ---------------------------------------------------------------------------

TEST(WireDoubleTest, AwkwardValuesRoundTripBitExactly) {
  const double values[] = {0.0,
                           -0.0,
                           0.1,
                           1.0 / 3.0,
                           -1234.5678,
                           1e-300,
                           1e300,
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::epsilon()};
  for (const double value : values) {
    std::string text = "{\"x\":";
    JsonAppendDouble(value, &text);
    text += "}";
    Result<JsonValue> parsed = JsonParse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    Result<double> decoded = parsed->Find("x")->AsDouble("x");
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_TRUE(BitEqual(value, *decoded)) << "value " << value;
  }
}

TEST(WireDoubleTest, EncodingIsPrintfPercent17gByteForByte) {
  // JsonAppendDouble writes through std::to_chars, which C++17 defines as
  // "%.17g": the bytes on the wire must be exactly what printf wrote, and
  // the decoder's from_chars path must read them back to the same bits.
  std::vector<double> values = {0.0,
                                -0.0,
                                0.1,
                                1.0 / 3.0,
                                -1234.5678,
                                1e-300,
                                1e300,
                                1e16,
                                -123456789012345678.0,
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::epsilon()};
  Rng rng(20240501);
  for (int added = 0; added < 100000;) {
    const uint64_t bits = rng.engine()();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    if (!std::isfinite(value)) continue;
    values.push_back(value);
    ++added;
  }
  for (const double value : values) {
    std::string text;
    JsonAppendDouble(value, &text);
    ASSERT_EQ(text, StrFormat("%.17g", value));
    Result<JsonValue> parsed = JsonParse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    Result<double> decoded = parsed->AsDouble("x");
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_TRUE(BitEqual(value, *decoded)) << text;
  }
}

TEST(WireDoubleTest, UnderflowingLiteralsStillDecodeToSignedZero) {
  // std::from_chars refuses these as out of range; the strtod fallback
  // accepts them, as the decoder always has, as a zero of their sign.
  Result<JsonValue> positive = JsonParse("1e-400");
  Result<JsonValue> negative = JsonParse("-1e-400");
  ASSERT_TRUE(positive.ok() && negative.ok());
  Result<double> plus_zero = positive->AsDouble("x");
  Result<double> minus_zero = negative->AsDouble("x");
  ASSERT_TRUE(plus_zero.ok()) << plus_zero.status();
  ASSERT_TRUE(minus_zero.ok()) << minus_zero.status();
  EXPECT_TRUE(BitEqual(*plus_zero, 0.0));
  EXPECT_TRUE(BitEqual(*minus_zero, -0.0));
}

TEST(WireIntegerTest, Uint64ExtremesRoundTripExactly) {
  // 2^53 + 1 and UINT64_MAX are NOT representable as doubles — the wire
  // must carry 64-bit integers as raw tokens, never through a double.
  const uint64_t values[] = {0, 1, (1ull << 53) + 1, UINT64_MAX};
  for (const uint64_t value : values) {
    std::string text =
        StrFormat("{\"x\":%llu}", static_cast<unsigned long long>(value));
    Result<JsonValue> parsed = JsonParse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    Result<uint64_t> decoded = parsed->Find("x")->AsUint64("x");
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(value, *decoded);
  }
}

// ---------------------------------------------------------------------------
// Round trips: core model types.
// ---------------------------------------------------------------------------

TEST(WireQuboTest, RandomizedInstancesRoundTripBitExactly) {
  for (const int n : {1, 2, 7, 16, 33}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      Qubo qubo = MakeQubo(n, seed * 1000 + n);
      qubo.AddOffset(seed * 0.1234567890123456789);
      EXPECT_TRUE(QubosBitEqual(qubo, RoundTripQubo(qubo)))
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(WireQuboTest, DegenerateInstancesRoundTrip) {
  // Smallest legal model, untouched after construction.
  EXPECT_TRUE(QubosBitEqual(Qubo(1), RoundTripQubo(Qubo(1))));

  // All-zero linear terms, no quadratic terms, negative-zero offset.
  Qubo zeros(3);
  zeros.AddOffset(-0.0);
  EXPECT_TRUE(QubosBitEqual(zeros, RoundTripQubo(zeros)));

  // Extreme coefficients.
  Qubo extreme(2);
  extreme.AddLinear(0, std::numeric_limits<double>::max());
  extreme.AddLinear(1, std::numeric_limits<double>::denorm_min());
  extreme.AddQuadratic(0, 1, -1e-300);
  extreme.AddOffset(1e300);
  EXPECT_TRUE(QubosBitEqual(extreme, RoundTripQubo(extreme)));
}

TEST(WireSolverOptionsTest, AllKnobsRoundTrip) {
  SolverOptions options;
  options.num_reads = 17;
  options.seed = UINT64_MAX;  // Not representable as a double.
  options.num_sweeps = 321;
  options.beta_min = 0.01;
  options.beta_max = 12.7;
  options.num_replicas = 9;
  options.swap_interval = 3;
  options.max_iterations = 555;
  options.tenure = 11;
  options.layers = 2;
  options.restarts = 4;
  options.max_qubits = 20;
  options.chain_strength = 3.25;
  options.chain_break_policy = ChainBreakPolicy::kDiscard;

  std::string text;
  AppendSolverOptionsJson(options, &text);
  Result<JsonValue> parsed = JsonParse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  Result<SolverOptions> decoded = DecodeSolverOptions(*parsed, "options");
  ASSERT_TRUE(decoded.ok()) << decoded.status();

  EXPECT_EQ(decoded->num_reads, options.num_reads);
  EXPECT_EQ(decoded->seed, options.seed);
  EXPECT_EQ(decoded->num_sweeps, options.num_sweeps);
  EXPECT_TRUE(BitEqual(decoded->beta_min, options.beta_min));
  EXPECT_TRUE(BitEqual(decoded->beta_max, options.beta_max));
  EXPECT_EQ(decoded->num_replicas, options.num_replicas);
  EXPECT_EQ(decoded->swap_interval, options.swap_interval);
  EXPECT_EQ(decoded->max_iterations, options.max_iterations);
  EXPECT_EQ(decoded->tenure, options.tenure);
  EXPECT_EQ(decoded->layers, options.layers);
  EXPECT_EQ(decoded->restarts, options.restarts);
  EXPECT_EQ(decoded->max_qubits, options.max_qubits);
  EXPECT_TRUE(BitEqual(decoded->chain_strength, options.chain_strength));
  EXPECT_EQ(decoded->chain_break_policy, options.chain_break_policy);
  EXPECT_EQ(decoded->rng, nullptr);
}

TEST(WireSolverOptionsTest, OmittedKnobsDefault) {
  Result<JsonValue> parsed = JsonParse("{\"num_reads\":3}");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  Result<SolverOptions> decoded = DecodeSolverOptions(*parsed, "options");
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->num_reads, 3);
  EXPECT_EQ(decoded->seed, 0u);
  EXPECT_EQ(decoded->num_sweeps, 0);
  EXPECT_EQ(decoded->chain_break_policy, ChainBreakPolicy::kMajorityVote);
}

TEST(WireSampleSetTest, SolverOutputRoundTripsBitExactly) {
  SolverOptions options;
  options.num_reads = 16;
  options.seed = 99;
  options.num_sweeps = 50;
  Result<SampleSet> solved =
      anneal::SolveWith("simulated_annealing", MakeQubo(8, 5), options);
  ASSERT_TRUE(solved.ok()) << solved.status();
  EXPECT_TRUE(BitIdentical(*solved, RoundTripSampleSet(*solved)));
}

TEST(WireSampleSetTest, EqualEnergyTiesKeepTheirOrder) {
  // SampleSet::Add inserts before equal-energy samples, so tie order is
  // load-bearing: a decoder that naively re-Adds in wire order would
  // reverse each tie group. Distinct assignments at one energy expose it.
  SampleSet ties;
  for (int i = 0; i < 5; ++i) {
    Sample sample;
    sample.assignment = {i % 2, (i / 2) % 2};
    sample.energy = (i < 3) ? 1.0 : 2.0;
    ties.Add(sample);
  }
  SampleSet decoded = RoundTripSampleSet(ties);
  ASSERT_TRUE(BitIdentical(ties, decoded));
  // Belt and braces: re-encode and compare the JSON byte for byte.
  std::string first;
  std::string second;
  AppendSampleSetJson(ties, &first);
  AppendSampleSetJson(decoded, &second);
  EXPECT_EQ(first, second);
}

TEST(WireSampleSetTest, DecisionFieldIsConditionalAndRoundTrips) {
  // Without a decision the field is omitted entirely — pre-adaptive v1
  // payloads stay byte-identical.
  SampleSet plain;
  Sample sample;
  sample.assignment = {1, 0};
  sample.energy = -2.5;
  plain.Add(sample);
  std::string without;
  AppendSampleSetJson(plain, &without);
  EXPECT_EQ(without.find("decision"), std::string::npos);

  // With one, it round-trips exactly (and only adds the one field).
  SampleSet decided = plain;
  decided.set_decision("commit:1:tabu_search");
  std::string with;
  AppendSampleSetJson(decided, &with);
  EXPECT_NE(with.find("\"decision\":\"commit:1:tabu_search\""),
            std::string::npos);
  SampleSet decoded = RoundTripSampleSet(decided);
  EXPECT_EQ(decoded.decision(), "commit:1:tabu_search");
  EXPECT_TRUE(BitIdentical(decided, decoded));
}

TEST(WireSampleSetTest, EmptyAndDegenerateSetsRoundTrip) {
  EXPECT_TRUE(BitIdentical(SampleSet(), RoundTripSampleSet({})));

  SampleSet empty_assignment;
  Sample sample;
  sample.energy = -0.0;
  empty_assignment.Add(sample);
  EXPECT_TRUE(
      BitIdentical(empty_assignment, RoundTripSampleSet(empty_assignment)));
}

// ---------------------------------------------------------------------------
// Round trips: requests and responses.
// ---------------------------------------------------------------------------

TEST(WireJobRequestTest, BothTypesRoundTrip) {
  for (const JobRequest::Type type :
       {JobRequest::Type::kSubmit, JobRequest::Type::kSubmitBatch}) {
    JobRequest request;
    request.type = type;
    request.solver = "simulated_annealing";
    request.qubos.push_back(MakeQubo(4, 7));
    if (type == JobRequest::Type::kSubmitBatch) {
      request.qubos.push_back(MakeQubo(3, 8));
    }
    request.options.num_reads = 5;
    request.options.seed = (1ull << 53) + 1;
    request.deadline = std::chrono::nanoseconds(123456789);

    Result<JobRequest> decoded = DecodeJobRequest(EncodeJobRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->type, request.type);
    EXPECT_EQ(decoded->solver, request.solver);
    ASSERT_EQ(decoded->qubos.size(), request.qubos.size());
    for (size_t i = 0; i < request.qubos.size(); ++i) {
      EXPECT_TRUE(QubosBitEqual(decoded->qubos[i], request.qubos[i]));
    }
    EXPECT_EQ(decoded->options.seed, request.options.seed);
    EXPECT_EQ(decoded->deadline, request.deadline);
  }
}

TEST(WireJobRequestTest, LegacySubmitRaceDecodesAsASubmitOfTheRaceName) {
  JobRequest submit;
  submit.solver = "race:simulated_annealing+tabu_search";
  submit.qubos.push_back(MakeQubo(4, 7));
  submit.options.num_reads = 5;
  submit.options.seed = (1ull << 53) + 1;
  submit.deadline = std::chrono::nanoseconds(123456789);
  const std::string submit_body = EncodeJobRequest(submit);
  // The body older encoders wrote for the same race: "members" in place of
  // "solver", every other byte equal.
  const std::string submit_head =
      "\"type\":\"submit\",\"solver\":\"" + submit.solver + "\"";
  const auto legacy_body = [&](const std::string& members) {
    std::string body = submit_body;
    const size_t at = body.find(submit_head);
    QDM_CHECK(at != std::string::npos) << body;
    return body.replace(at, submit_head.size(),
                        "\"type\":\"submit_race\",\"members\":" + members);
  };

  Result<JobRequest> decoded = DecodeJobRequest(
      legacy_body("[\"simulated_annealing\",\"tabu_search\"]"));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->type, JobRequest::Type::kSubmit);
  EXPECT_EQ(decoded->solver, submit.solver);
  ASSERT_EQ(decoded->qubos.size(), 1u);
  EXPECT_TRUE(QubosBitEqual(decoded->qubos[0], submit.qubos[0]));
  EXPECT_EQ(decoded->options.seed, submit.options.seed);
  EXPECT_EQ(decoded->deadline, submit.deadline);
  // It IS that submit: re-encoding yields the submit's bytes.
  EXPECT_EQ(EncodeJobRequest(*decoded), submit_body);

  // The legacy field keeps its own decode errors.
  auto not_array = DecodeJobRequest(legacy_body("\"tabu_search\""));
  ASSERT_FALSE(not_array.ok());
  EXPECT_EQ(not_array.status().message(),
            "request.members: expected an array, got string");
  auto not_string = DecodeJobRequest(legacy_body("[\"tabu_search\",7]"));
  ASSERT_FALSE(not_string.ok());
  EXPECT_EQ(not_string.status().message(),
            "request.members[1]: expected a string, got number");
}

TEST(WireErrorBodyTest, EveryStatusCodeRoundTripsExactly) {
  const int last = static_cast<int>(StatusCode::kDeadlineExceeded);
  for (int i = 1; i <= last; ++i) {  // Skip kOk: error bodies are errors.
    const Status status(static_cast<StatusCode>(i),
                        "message with \"quotes\", \\ and \x01 control");
    Status remote;
    const Status decode = DecodeErrorBody(EncodeErrorBody(status), &remote);
    ASSERT_TRUE(decode.ok()) << decode;
    EXPECT_EQ(remote, status);
  }
}

TEST(WireSnapshotTest, EveryJobStateRoundTrips) {
  const int last = static_cast<int>(JobState::kDeadlineExceeded);
  for (int i = 0; i <= last; ++i) {
    JobSnapshot snapshot;
    snapshot.id = UINT64_MAX;
    snapshot.state = static_cast<JobState>(i);
    snapshot.status = Status::Cancelled("job 42 cancelled");
    Result<JobSnapshot> decoded =
        DecodeSnapshotResponse(EncodeSnapshotResponse(snapshot));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->id, snapshot.id);
    EXPECT_EQ(decoded->state, snapshot.state);
    EXPECT_EQ(decoded->status, snapshot.status);
  }
}

TEST(WireResponseTest, SubmitSolversStatsHealthRoundTrip) {
  Result<service::JobId> id =
      DecodeSubmitResponse(EncodeSubmitResponse(UINT64_MAX));
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*id, UINT64_MAX);

  const std::vector<std::string> names = {"a", "embedded:x:y", "race:a+b"};
  Result<std::vector<std::string>> solvers =
      DecodeSolversResponse(EncodeSolversResponse(names));
  ASSERT_TRUE(solvers.ok()) << solvers.status();
  EXPECT_EQ(*solvers, names);

  StatsResponse stats;
  stats.stats.submitted = 10;
  stats.stats.rejected = 2;
  stats.stats.queued = 1;
  stats.stats.running = 3;
  stats.stats.completed = 4;
  stats.stats.cancelled = 1;
  stats.stats.deadline_exceeded = 1;
  stats.accepting = false;
  stats.num_workers = 8;
  Result<StatsResponse> decoded =
      DecodeStatsResponse(EncodeStatsResponse(stats));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->stats.submitted, stats.stats.submitted);
  EXPECT_EQ(decoded->stats.rejected, stats.stats.rejected);
  EXPECT_EQ(decoded->stats.queued, stats.stats.queued);
  EXPECT_EQ(decoded->stats.running, stats.stats.running);
  EXPECT_EQ(decoded->stats.completed, stats.stats.completed);
  EXPECT_EQ(decoded->stats.cancelled, stats.stats.cancelled);
  EXPECT_EQ(decoded->stats.deadline_exceeded, stats.stats.deadline_exceeded);
  EXPECT_EQ(decoded->accepting, stats.accepting);
  EXPECT_EQ(decoded->num_workers, stats.num_workers);

  // Health and results responses parse as valid envelopes.
  Result<JsonValue> health = ParseEnvelope(EncodeHealthResponse(true));
  ASSERT_TRUE(health.ok()) << health.status();

  SampleSet set;
  Sample sample;
  sample.assignment = {1, 0};
  sample.energy = 0.25;
  set.Add(sample);
  Result<std::vector<SampleSet>> results =
      DecodeResultsResponse(EncodeResultsResponse({set, set}));
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 2u);
  EXPECT_TRUE(BitIdentical((*results)[0], set));
  EXPECT_TRUE(BitIdentical((*results)[1], set));
}

TEST(WireStringTest, EscapesAndUnicodeRoundTrip) {
  const std::string awkward =
      "tabs\tnewlines\nquotes\"backslash\\nul-adjacent\x01 utf8 \xC3\xA9";
  std::string text = "{\"s\":";
  JsonAppendQuoted(awkward, &text);
  text += "}";
  Result<JsonValue> parsed = JsonParse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Find("s")->string_value(), awkward);

  // Escaped-unicode forms decode too (surrogate pair -> 4-byte UTF-8).
  Result<JsonValue> unicode = JsonParse("{\"s\":\"\\u00e9 \\ud83d\\ude00\"}");
  ASSERT_TRUE(unicode.ok()) << unicode.status();
  EXPECT_EQ(unicode->Find("s")->string_value(), "\xC3\xA9 \xF0\x9F\x98\x80");
}

// ---------------------------------------------------------------------------
// Malformed-input taxonomy.
// ---------------------------------------------------------------------------

std::string ValidSubmitBody() {
  JobRequest request;
  request.solver = "simulated_annealing";
  request.qubos.push_back(MakeQubo(3, 1));
  request.options.num_reads = 2;
  return EncodeJobRequest(request);
}

TEST(WireTaxonomyTest, TruncatedJsonIsInvalidArgument) {
  const std::string body = ValidSubmitBody();
  for (const size_t keep :
       {size_t{0}, size_t{1}, body.size() / 2, body.size() - 1}) {
    Result<JobRequest> decoded = DecodeJobRequest(body.substr(0, keep));
    ASSERT_FALSE(decoded.ok()) << "keep=" << keep;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find("JSON parse error"),
              std::string::npos)
        << decoded.status();
  }
}

TEST(WireTaxonomyTest, UnknownVersionIsRejectedBeforeAnyField) {
  ExpectRejected(DecodeJobRequest("{\"version\":2,\"type\":\"submit\"}"),
                 "version");
  ExpectRejected(DecodeJobRequest("{\"type\":\"submit\"}"), "version");
  ExpectRejected(DecodeJobRequest("{\"version\":\"1\"}"), "version");
}

TEST(WireTaxonomyTest, WrongTypesNameTheOffendingField) {
  ExpectRejected(
      DecodeJobRequest(
          "{\"version\":1,\"type\":\"submit\",\"solver\":7,\"qubo\":{}}"),
      "request.solver");
  ExpectRejected(DecodeJobRequest("{\"version\":1,\"type\":\"submit\","
                                  "\"solver\":\"x\",\"qubo\":[]}"),
                 "request.qubo");
  ExpectRejected(
      DecodeJobRequest("{\"version\":1,\"type\":\"submit\",\"solver\":\"x\","
                       "\"qubo\":{\"num_variables\":\"three\"}}"),
      "request.qubo.num_variables");
  ExpectRejected(
      DecodeJobRequest("{\"version\":1,\"type\":\"submit\",\"solver\":\"x\","
                       "\"qubo\":{\"num_variables\":1,\"linear\":[0]},"
                       "\"options\":{\"num_reads\":\"many\"}}"),
      "request.options.num_reads");
  {
    Result<JsonValue> parsed = JsonParse("{\"samples\":[],\"decision\":7}");
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    ExpectRejected(DecodeSampleSet(*parsed, "set"), "set.decision");
  }
}

TEST(WireTaxonomyTest, UnknownFieldsAreRejected) {
  ExpectRejected(
      DecodeJobRequest("{\"version\":1,\"type\":\"submit\",\"solver\":\"x\","
                       "\"qubo\":{\"num_variables\":1},\"surprise\":1}"),
      "request.surprise");
  ExpectRejected(
      DecodeJobRequest("{\"version\":1,\"type\":\"submit\",\"solver\":\"x\","
                       "\"qubo\":{\"num_variables\":0,\"bias\":[]}}"),
      "request.qubo.bias");
  ExpectRejected(
      DecodeJobRequest("{\"version\":1,\"type\":\"submit\",\"solver\":\"x\","
                       "\"qubo\":{\"num_variables\":1},"
                       "\"options\":{\"temperature\":3}}"),
      "request.options.temperature");
}

TEST(WireTaxonomyTest, NanAndInfAreNotRepresentable) {
  // Raw NaN/Infinity tokens are not JSON at all.
  Result<JsonValue> nan_token = JsonParse("{\"x\":NaN}");
  ASSERT_FALSE(nan_token.ok());
  EXPECT_EQ(nan_token.status().code(), StatusCode::kInvalidArgument);

  // An overflowing literal parses as JSON but is rejected at the double
  // boundary, naming the field.
  ExpectRejected(
      DecodeJobRequest("{\"version\":1,\"type\":\"submit\",\"solver\":\"x\","
                       "\"qubo\":{\"num_variables\":1,\"linear\":[1e999]}}"),
      "request.qubo.linear[0]");
}

TEST(WireTaxonomyTest, OversizedPayloadIsRejectedAtTheEnvelope) {
  const std::string oversized(kMaxPayloadBytes + 1, ' ');
  Result<JobRequest> decoded = DecodeJobRequest(oversized);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("wire limit"), std::string::npos)
      << decoded.status();
}

TEST(WireTaxonomyTest, QuboIndexRangesAreValidatedBeforeConstruction) {
  // Out-of-range and diagonal quadratic indices, negative and absurd
  // variable counts — all must be errors, never aborts.
  ExpectRejected(
      DecodeJobRequest(
          "{\"version\":1,\"type\":\"submit\",\"solver\":\"x\","
          "\"qubo\":{\"num_variables\":2,\"quadratic\":[[0,5,1.0]]}}"),
      "request.qubo.quadratic[0]");
  ExpectRejected(
      DecodeJobRequest(
          "{\"version\":1,\"type\":\"submit\",\"solver\":\"x\","
          "\"qubo\":{\"num_variables\":2,\"quadratic\":[[1,1,1.0]]}}"),
      "request.qubo.quadratic[0]");
  ExpectRejected(
      DecodeJobRequest("{\"version\":1,\"type\":\"submit\",\"solver\":\"x\","
                       "\"qubo\":{\"num_variables\":-1}}"),
      "request.qubo.num_variables");
  ExpectRejected(
      DecodeJobRequest("{\"version\":1,\"type\":\"submit\",\"solver\":\"x\","
                       "\"qubo\":{\"num_variables\":99999999}}"),
      "request.qubo.num_variables");
  ExpectRejected(
      DecodeJobRequest("{\"version\":1,\"type\":\"submit\",\"solver\":\"x\","
                       "\"qubo\":{\"num_variables\":2,\"linear\":[0.0]}}"),
      "request.qubo.linear");
}

TEST(WireTaxonomyTest, MiscellaneousFieldValidation) {
  // Unknown request type.
  ExpectRejected(DecodeJobRequest("{\"version\":1,\"type\":\"solve\"}"),
                 "request.type");
  // Negative seed cannot be a uint64.
  ExpectRejected(
      DecodeJobRequest(
          "{\"version\":1,\"type\":\"submit\",\"solver\":\"x\","
          "\"qubo\":{\"num_variables\":1},\"options\":{\"seed\":-1}}"),
      "request.options.seed");
  // Unknown chain-break policy.
  ExpectRejected(
      DecodeJobRequest("{\"version\":1,\"type\":\"submit\",\"solver\":\"x\","
                       "\"qubo\":{\"num_variables\":1},"
                       "\"options\":{\"chain_break_policy\":\"vote\"}}"),
      "request.options.chain_break_policy");
  // Assignment entries must be bits.
  Result<JsonValue> parsed =
      JsonParse("{\"samples\":[{\"assignment\":[0,2],\"energy\":0.0}]}");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectRejected(DecodeSampleSet(*parsed, "set"), "set.samples[0]");
}

TEST(WireTaxonomyTest, RejectionsKeepTheirExactMessages) {
  // Whole messages, not substrings: the decoder's fast paths (from_chars
  // first, field paths built only for a rejected value) may change how
  // fast a value is accepted, never what a rejection says.
  const std::string submit =
      "{\"version\":1,\"type\":\"submit\",\"solver\":\"x\",";
  const std::pair<std::string, const char*> requests[] = {
      {submit + "\"qubo\":{\"num_variables\":2,\"linear\":[0.5,\"a\"]}}",
       "request.qubo.linear[1]: expected a number, got string"},
      {submit + "\"qubo\":{\"num_variables\":1,\"linear\":[1e999]}}",
       "request.qubo.linear[0]: number '1e999' does not fit a finite double "
       "(NaN/Inf are not representable on the wire)"},
      {submit + "\"qubo\":{\"num_variables\":2,"
                "\"quadratic\":[[0,1,0.5],[0,1]]}}",
       "request.qubo.quadratic[1]: expected an [i, j, weight] triple"},
      {submit + "\"qubo\":{\"num_variables\":2,\"quadratic\":[[0.5,1,1.0]]}}",
       "request.qubo.quadratic[0][0]: expected an integer, got '0.5'"},
      {submit + "\"qubo\":{\"num_variables\":2,"
                "\"quadratic\":[[0,99999999999999999999,1]]}}",
       "request.qubo.quadratic[0][1]: integer '99999999999999999999' out of "
       "int64 range"},
      {submit + "\"qubo\":{\"num_variables\":2,\"quadratic\":[[0,1,\"w\"]]}}",
       "request.qubo.quadratic[0][2]: expected a number, got string"},
      {submit + "\"qubo\":{\"num_variables\":2,\"quadratic\":[[0,5,1.0]]}}",
       "request.qubo.quadratic[0]: variable pair (0, 5) invalid for 2 "
       "variables"},
      {submit + "\"qubo\":{\"num_variables\":2,\"quadratic\":[[1,1,1.0]]}}",
       "request.qubo.quadratic[0]: variable pair (1, 1) invalid for 2 "
       "variables"},
      {"{\"version\":1,\"type\":\"submit_batch\",\"solver\":\"x\","
       "\"qubos\":[{\"num_variables\":1},"
       "{\"num_variables\":2,\"linear\":[0,1e-5,3]}]}",
       "request.qubos[1].linear: expected 2 entries (one per variable), got "
       "3"},
      {submit + "\"qubo\":{\"num_variables\":1},\"options\":{\"seed\":-1}}",
       "request.options.seed: expected an unsigned integer, got '-1'"},
      {submit + "\"qubo\":{\"num_variables\":1},"
                "\"options\":{\"seed\":18446744073709551616}}",
       "request.options.seed: integer '18446744073709551616' out of uint64 "
       "range"},
      {submit +
           "\"qubo\":{\"num_variables\":1},\"options\":{\"num_reads\":2.5}}",
       "request.options.num_reads: expected an integer, got '2.5'"},
  };
  for (const auto& [body, message] : requests) {
    Result<JobRequest> decoded = DecodeJobRequest(body);
    ASSERT_FALSE(decoded.ok()) << body;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(decoded.status().message(), message);
  }

  const std::pair<std::string, const char*> responses[] = {
      {"{\"version\":1,\"results\":[{\"samples\":"
       "[{\"assignment\":[0,2],\"energy\":0}]}]}",
       "response.results[0].samples[0].assignment[1]: expected 0 or 1, got "
       "2"},
      {"{\"version\":1,\"results\":[{\"samples\":"
       "[{\"assignment\":[1.0],\"energy\":0}]}]}",
       "response.results[0].samples[0].assignment[0]: expected an integer, "
       "got '1.0'"},
      {"{\"version\":1,\"results\":[{\"samples\":[]},{\"samples\":"
       "[{\"assignment\":[1],\"energy\":0},"
       "{\"assignment\":[0,1],\"energy\":\"low\"}]}]}",
       "response.results[1].samples[1].energy: expected a number, got "
       "string"},
      {"{\"version\":1,\"results\":[{\"samples\":"
       "[{\"assignment\":[1],\"energy\":0,\"bogus\":1}]}]}",
       "response.results[0].samples[0].bogus: unknown field"},
  };
  for (const auto& [body, message] : responses) {
    Result<std::vector<SampleSet>> decoded = DecodeResultsResponse(body);
    ASSERT_FALSE(decoded.ok()) << body;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(decoded.status().message(), message);
  }

  Result<std::vector<std::string>> solvers =
      DecodeSolversResponse("{\"version\":1,\"solvers\":[\"tabu_search\",7]}");
  ASSERT_FALSE(solvers.ok());
  EXPECT_EQ(solvers.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(solvers.status().message(),
            "response.solvers[1]: expected a string, got number");
}

}  // namespace
}  // namespace net
}  // namespace qdm
