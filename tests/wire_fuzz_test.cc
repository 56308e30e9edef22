// Seeded mutation fuzzer for the qdmd wire codec (qdm/net/wire.h). One
// valid document of every wire type is mutated many times over, and every
// mutant goes through all seven decoders. The outcomes are pinned by one
// FNV-1a digest per decoder over the rejection (code, message) or the
// re-encoded bytes of what was accepted, so a rewrite of the JSON parser or
// of a decoder that changes any accepted value, rejection text or rejection
// precedence changes a digest. Two oracles hold for every mutant: each
// rejection is InvalidArgument with a message, and each accepted document
// re-encodes to a fixed point.
//
// The mutations draw raw MT19937-64 words from qdm::Rng (no std
// distribution, whose output differs between standard libraries), so the
// digests are the same on every platform.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "qdm/anneal/qubo.h"
#include "qdm/anneal/sampler.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/status.h"
#include "qdm/net/wire.h"
#include "qdm/service/job.h"

namespace qdm {
namespace net {
namespace {

using anneal::Qubo;
using anneal::Sample;
using anneal::SampleSet;

constexpr int kMutants = 100000;
constexpr uint64_t kSeed = 20241027;

/// Recorded before the codec's decode rules were collapsed (one field
/// lookup, one status decoder, one container loop); a change to the parser
/// or to any decoder must leave every entry as it is.
constexpr uint64_t kExpectedDigests[] = {
    0xad8516612d815f7cull,  // DecodeJobRequest
    0x237e795670957847ull,  // DecodeErrorBody
    0xcd907e7cbd2641a9ull,  // DecodeSubmitResponse
    0x43f1060c56dbbb4aull,  // DecodeSnapshotResponse
    0xbbb75b9bbcf58a8full,  // DecodeResultsResponse
    0x9161f9e72af45836ull,  // DecodeSolversResponse
    0x7c6a4529e526eaaaull,  // DecodeStatsResponse
};

Qubo SmallQubo(double scale) {
  Qubo qubo(3);
  qubo.AddOffset(0.25 * scale);
  qubo.AddLinear(0, -1.5 * scale);
  qubo.AddLinear(2, 0.125 * scale);
  qubo.AddQuadratic(0, 1, 2.0 * scale);
  qubo.AddQuadratic(1, 2, -0.75 * scale);
  return qubo;
}

anneal::SolverOptions SmallOptions() {
  anneal::SolverOptions options;
  options.num_reads = 4;
  options.seed = 18446744073709551557ull;
  options.num_sweeps = 50;
  options.beta_max = 3.5;
  options.chain_break_policy = anneal::ChainBreakPolicy::kMinimizeEnergy;
  return options;
}

SampleSet SmallSampleSet(double fidelity, std::string decision) {
  SampleSet set;
  Sample low;
  low.assignment = {1, 0, 1};
  low.energy = -1.25;
  Sample high;
  high.assignment = {0, 1, 0};
  high.energy = 0.5;
  high.chain_break_fraction = 0.125;
  set.Add(low);
  set.Add(high);
  set.set_noise_fidelity(fidelity);
  set.set_decision(std::move(decision));
  return set;
}

/// One valid document of every wire type.
std::vector<std::string> Corpus() {
  std::vector<std::string> corpus;

  JobRequest submit;
  submit.solver = "simulated_annealing";
  submit.qubos = {SmallQubo(1.0)};
  submit.options = SmallOptions();
  submit.deadline = std::chrono::milliseconds(250);
  corpus.push_back(EncodeJobRequest(submit));

  JobRequest batch;
  batch.type = JobRequest::Type::kSubmitBatch;
  batch.solver = "tabu_search";
  batch.qubos = {SmallQubo(1.0), SmallQubo(-2.0)};
  corpus.push_back(EncodeJobRequest(batch));

  corpus.push_back(
      "{\"version\":1,\"type\":\"submit_race\",\"members\":"
      "[\"simulated_annealing\",\"tabu_search\"],\"qubo\":{\"num_variables\":"
      "2,\"linear\":[0.5,-1],\"quadratic\":[[0,1,2]]},\"options\":"
      "{\"num_reads\":2,\"seed\":7}}");

  corpus.push_back(EncodeErrorBody(
      Status::NotFound("unknown solver \"x\\y\"\n\x01 \xC3\xA9")));
  corpus.push_back(EncodeSubmitResponse(42));

  service::JobSnapshot snapshot;
  snapshot.id = 9;
  snapshot.state = service::JobState::kFailed;
  snapshot.status = Status::InvalidArgument("num_reads: must be >= 1");
  corpus.push_back(EncodeSnapshotResponse(snapshot));

  corpus.push_back(
      EncodeResultsResponse({SmallSampleSet(1.0, ""),
                             SmallSampleSet(0.875, "commit:1:tabu_search")}));
  corpus.push_back(EncodeSolversResponse({"exact", "race:a+b"}));

  StatsResponse stats;
  stats.stats.submitted = 12;
  stats.stats.rejected = 1;
  stats.stats.completed = 10;
  stats.stats.deadline_exceeded = 1;
  stats.num_workers = 4;
  corpus.push_back(EncodeStatsResponse(stats));

  corpus.push_back(EncodeHealthResponse(true));
  corpus.push_back(EncodeCancelResponse(5));
  return corpus;
}

/// One decoder, and the encoder that writes back what it accepted.
struct Codec {
  const char* name;
  Result<std::string> (*round_trip)(const std::string& body);
};

const Codec kCodecs[] = {
    {"DecodeJobRequest",
     [](const std::string& body) -> Result<std::string> {
       QDM_ASSIGN_OR_RETURN(const JobRequest request, DecodeJobRequest(body));
       return EncodeJobRequest(request);
     }},
    {"DecodeErrorBody",
     [](const std::string& body) -> Result<std::string> {
       Status remote;
       QDM_RETURN_IF_ERROR(DecodeErrorBody(body, &remote));
       return EncodeErrorBody(remote);
     }},
    {"DecodeSubmitResponse",
     [](const std::string& body) -> Result<std::string> {
       QDM_ASSIGN_OR_RETURN(const service::JobId id,
                            DecodeSubmitResponse(body));
       return EncodeSubmitResponse(id);
     }},
    {"DecodeSnapshotResponse",
     [](const std::string& body) -> Result<std::string> {
       QDM_ASSIGN_OR_RETURN(const service::JobSnapshot snapshot,
                            DecodeSnapshotResponse(body));
       return EncodeSnapshotResponse(snapshot);
     }},
    {"DecodeResultsResponse",
     [](const std::string& body) -> Result<std::string> {
       QDM_ASSIGN_OR_RETURN(const std::vector<SampleSet> results,
                            DecodeResultsResponse(body));
       return EncodeResultsResponse(results);
     }},
    {"DecodeSolversResponse",
     [](const std::string& body) -> Result<std::string> {
       QDM_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                            DecodeSolversResponse(body));
       return EncodeSolversResponse(names);
     }},
    {"DecodeStatsResponse",
     [](const std::string& body) -> Result<std::string> {
       QDM_ASSIGN_OR_RETURN(const StatsResponse stats,
                            DecodeStatsResponse(body));
       return EncodeStatsResponse(stats);
     }},
};
constexpr size_t kNumCodecs = sizeof(kCodecs) / sizeof(kCodecs[0]);
static_assert(sizeof(kExpectedDigests) / sizeof(kExpectedDigests[0]) ==
              kNumCodecs);

/// 64-bit FNV-1a. Each Add mixes the length before the bytes, so two
/// sequences of fields hash apart even when their concatenations match.
class Fnv1a {
 public:
  void Add(std::string_view bytes) {
    for (int shift = 0; shift < 64; shift += 8) {
      Mix(static_cast<unsigned char>(bytes.size() >> shift));
    }
    for (const char c : bytes) Mix(static_cast<unsigned char>(c));
  }
  uint64_t value() const { return hash_; }

 private:
  void Mix(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= 1099511628211ull;
  }
  uint64_t hash_ = 14695981039346656037ull;
};

/// Byte-level mutations of corpus documents, every choice one raw engine
/// word reduced modulo its range.
class Mutator {
 public:
  Mutator(uint64_t seed, const std::vector<std::string>& corpus)
      : rng_(seed), corpus_(corpus) {}

  std::string Next() {
    std::string doc = corpus_[Below(corpus_.size())];
    const uint64_t count = 1 + Below(3);
    for (uint64_t m = 0; m < count; ++m) Mutate(&doc);
    return doc;
  }

 private:
  uint64_t Below(uint64_t n) { return rng_.engine()() % n; }

  void Mutate(std::string* doc) {
    static constexpr std::string_view kBytes =
        "{}[],:\"\\ -+.0123456789eEtrufalsn\x01\x7f";
    static constexpr std::string_view kTokens[] = {
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        "\"",
        "\\",
        " ",
        "0",
        "1",
        "-1",
        "-0",
        "0.5",
        "1e999",
        "1e-400",
        "2147483648",
        "9223372036854775808",
        "18446744073709551616",
        "true",
        "false",
        "null",
        "\"x\"",
        "\"\\u00e9\"",
        "\"\\ud800\"",
        "[]",
        "{}",
        "\"version\":1,",
        "\"version\":2",
    };
    const size_t size = doc->size();
    const uint64_t kind = Below(6);
    if (size == 0 && kind != 3 && kind != 4) return;
    switch (kind) {
      case 0: {  // Overwrite one byte with a JSON byte or any byte.
        const size_t at = Below(size);
        (*doc)[at] = Below(2) == 0 ? kBytes[Below(kBytes.size())]
                                   : static_cast<char>(Below(256));
        break;
      }
      case 1:  // Truncate.
        doc->resize(Below(size));
        break;
      case 2: {  // Delete a range of up to 16 bytes.
        const size_t at = Below(size);
        doc->erase(at, 1 + Below(16));
        break;
      }
      case 3: {  // Splice: this head, another document's tail.
        const std::string& other = corpus_[Below(corpus_.size())];
        const size_t head = Below(size + 1);
        const size_t tail = Below(other.size() + 1);
        *doc = doc->substr(0, head) + other.substr(tail);
        break;
      }
      case 4: {  // Insert a token.
        const std::string_view token =
            kTokens[Below(sizeof(kTokens) / sizeof(kTokens[0]))];
        doc->insert(Below(size + 1), token.data(), token.size());
        break;
      }
      case 5: {  // Swap two bytes.
        const size_t a = Below(size);
        const size_t b = Below(size);
        std::swap((*doc)[a], (*doc)[b]);
        break;
      }
    }
  }

  Rng rng_;
  const std::vector<std::string>& corpus_;
};

TEST(WireFuzzTest, CorpusDocumentsAreAcceptedByTheirDecoders) {
  // The mutants start from valid documents: the corpus entries for the
  // decoded types round-trip as they are.
  const std::vector<std::string> corpus = Corpus();
  const std::pair<size_t, size_t> decoded_by[] = {
      {0, 0}, {1, 0}, {3, 1}, {4, 2}, {5, 3}, {6, 4}, {7, 5}, {8, 6}};
  for (const auto& [doc, codec] : decoded_by) {
    Result<std::string> round_trip = kCodecs[codec].round_trip(corpus[doc]);
    ASSERT_TRUE(round_trip.ok())
        << kCodecs[codec].name << ": " << round_trip.status();
    EXPECT_EQ(*round_trip, corpus[doc]) << kCodecs[codec].name;
  }
  Result<std::string> race = kCodecs[0].round_trip(corpus[2]);
  ASSERT_TRUE(race.ok()) << race.status();
}

TEST(WireFuzzTest, SeededMutantsKeepTheirPinnedDigests) {
  const std::vector<std::string> corpus = Corpus();
  Mutator mutator(kSeed, corpus);
  Fnv1a digests[kNumCodecs];
  size_t parse_errors = 0;
  size_t envelope_errors = 0;
  size_t field_errors = 0;
  size_t accepted = 0;
  size_t oracle_failures = 0;
  std::string first_failure;
  const auto fail = [&](const std::string& what) {
    if (oracle_failures++ == 0) first_failure = what;
  };

  for (int m = 0; m < kMutants; ++m) {
    const std::string mutant = mutator.Next();
    for (size_t c = 0; c < kNumCodecs; ++c) {
      const Codec& codec = kCodecs[c];
      const Result<std::string> outcome = codec.round_trip(mutant);
      if (!outcome.ok()) {
        const Status& status = outcome.status();
        digests[c].Add(StatusCodeToString(status.code()));
        digests[c].Add(status.message());
        if (status.code() != StatusCode::kInvalidArgument ||
            status.message().empty()) {
          fail(std::string(codec.name) + " rejected mutant " +
               std::to_string(m) + " with " + status.ToString());
        }
        const std::string& message = status.message();
        if (message.rfind("JSON parse error", 0) == 0) {
          ++parse_errors;
        } else if (message.rfind("payload:", 0) == 0 ||
                   message.rfind("envelope:", 0) == 0 ||
                   message.rfind("version:", 0) == 0) {
          ++envelope_errors;
        } else {
          ++field_errors;
        }
        continue;
      }
      ++accepted;
      digests[c].Add("accepted");
      digests[c].Add(*outcome);
      const Result<std::string> again = codec.round_trip(*outcome);
      if (!again.ok() || *again != *outcome) {
        fail(std::string(codec.name) + " mutant " + std::to_string(m) +
             " does not re-encode to a fixed point: " + *outcome);
      }
    }
  }

  std::printf(
      "%d mutants x %zu decoders: %zu parse errors, %zu envelope errors, "
      "%zu field errors, %zu accepted\n",
      kMutants, kNumCodecs, parse_errors, envelope_errors, field_errors,
      accepted);
  EXPECT_EQ(oracle_failures, 0u) << "first: " << first_failure;
  // Every class of outcome is exercised, so the digests pin more than the
  // parser's syntax errors.
  EXPECT_GT(envelope_errors, 0u);
  EXPECT_GT(field_errors, 0u);
  EXPECT_GT(accepted, 0u);
  for (size_t c = 0; c < kNumCodecs; ++c) {
    std::printf("%s digest 0x%016llxull\n", kCodecs[c].name,
                static_cast<unsigned long long>(digests[c].value()));
    EXPECT_EQ(digests[c].value(), kExpectedDigests[c]) << kCodecs[c].name;
  }
}

}  // namespace
}  // namespace net
}  // namespace qdm
