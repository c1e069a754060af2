//===- tests/test_metrics.cpp - Prometheus exposition conformance -*- C++ -*-//
///
/// Parses EVERY line of GET /admin/metrics against the Prometheus
/// text-exposition grammar (version 0.0.4): comment lines are
/// well-formed HELP/TYPE for a declared metric family, sample lines are
/// `name{labels} value` with parseable values, histogram buckets are
/// cumulative-monotone, and the `+Inf` bucket of every histogram equals
/// its `_count` — scraped before and after a staged+committed update so
/// the counters are also checked for monotonicity across a commit.

#include "flashed/App.h"
#include "flashed/Client.h"
#include "flashed/Patches.h"
#include "net/ReactorPool.h"
#include "patch/PatchBuilder.h"
#include "runtime/UpdateController.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <thread>

using namespace dsu;
using namespace dsu::flashed;

namespace {

constexpr unsigned kWorkers = 2;

/// One parsed sample: family name, canonicalized label set, value.
struct Sample {
  std::string Name;
  std::map<std::string, std::string> Labels;
  double Value = 0;

  /// The label set minus \p Drop, serialized canonically (sorted).
  std::string labelKey(const std::string &Drop = "") const {
    std::string Out;
    for (const auto &KV : Labels) {
      if (KV.first == Drop)
        continue;
      Out += KV.first + "=\"" + KV.second + "\",";
    }
    return Out;
  }
};

bool validMetricName(const std::string &S) {
  if (S.empty())
    return false;
  if (!std::isalpha(static_cast<unsigned char>(S[0])) && S[0] != '_' &&
      S[0] != ':')
    return false;
  for (char C : S)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_' && C != ':')
      return false;
  return true;
}

/// Parses one exposition document; fails the test on any malformed line.
struct Exposition {
  std::map<std::string, std::string> Types; ///< family -> counter/gauge/...
  std::set<std::string> Helped;             ///< families with # HELP
  std::vector<Sample> Samples;

  void parse(const std::string &Body) {
    size_t LineNo = 0;
    size_t Pos = 0;
    while (Pos < Body.size()) {
      size_t Eol = Body.find('\n', Pos);
      if (Eol == std::string::npos)
        Eol = Body.size();
      std::string Line = Body.substr(Pos, Eol - Pos);
      Pos = Eol + 1;
      ++LineNo;
      if (Line.empty())
        continue;
      if (Line[0] == '#') {
        parseComment(Line, LineNo);
        continue;
      }
      parseSample(Line, LineNo);
    }
  }

  void parseComment(const std::string &Line, size_t LineNo) {
    // "# HELP <name> <docstring>" | "# TYPE <name> <type>"
    ASSERT_EQ(Line.rfind("# ", 0), 0u) << "line " << LineNo << ": " << Line;
    size_t KwEnd = Line.find(' ', 2);
    ASSERT_NE(KwEnd, std::string::npos) << "line " << LineNo << ": " << Line;
    std::string Kw = Line.substr(2, KwEnd - 2);
    ASSERT_TRUE(Kw == "HELP" || Kw == "TYPE")
        << "line " << LineNo << ": " << Line;
    size_t NameEnd = Line.find(' ', KwEnd + 1);
    ASSERT_NE(NameEnd, std::string::npos) << "line " << LineNo << ": " << Line;
    std::string Name = Line.substr(KwEnd + 1, NameEnd - KwEnd - 1);
    ASSERT_TRUE(validMetricName(Name)) << "line " << LineNo << ": " << Line;
    std::string Rest = Line.substr(NameEnd + 1);
    ASSERT_FALSE(Rest.empty()) << "line " << LineNo << ": " << Line;
    if (Kw == "HELP") {
      Helped.insert(Name);
    } else {
      ASSERT_TRUE(Rest == "counter" || Rest == "gauge" ||
                  Rest == "histogram" || Rest == "summary" ||
                  Rest == "untyped")
          << "line " << LineNo << ": " << Line;
      Types[Name] = Rest;
    }
  }

  void parseSample(const std::string &Line, size_t LineNo) {
    Sample S;
    size_t I = 0;
    while (I < Line.size() && Line[I] != '{' && Line[I] != ' ')
      ++I;
    S.Name = Line.substr(0, I);
    ASSERT_TRUE(validMetricName(S.Name))
        << "line " << LineNo << ": " << Line;
    if (I < Line.size() && Line[I] == '{') {
      ++I;
      while (I < Line.size() && Line[I] != '}') {
        size_t Eq = Line.find('=', I);
        ASSERT_NE(Eq, std::string::npos) << "line " << LineNo << ": " << Line;
        std::string Key = Line.substr(I, Eq - I);
        ASSERT_TRUE(validMetricName(Key))
            << "line " << LineNo << ": bad label name in: " << Line;
        ASSERT_EQ(Line[Eq + 1], '"') << "line " << LineNo << ": " << Line;
        size_t Q = Line.find('"', Eq + 2);
        ASSERT_NE(Q, std::string::npos) << "line " << LineNo << ": " << Line;
        S.Labels[Key] = Line.substr(Eq + 2, Q - Eq - 2);
        I = Q + 1;
        if (I < Line.size() && Line[I] == ',')
          ++I;
      }
      ASSERT_LT(I, Line.size()) << "line " << LineNo << ": " << Line;
      ++I; // '}'
    }
    ASSERT_LT(I, Line.size()) << "line " << LineNo << ": " << Line;
    ASSERT_EQ(Line[I], ' ') << "line " << LineNo << ": " << Line;
    std::string ValStr = Line.substr(I + 1);
    ASSERT_FALSE(ValStr.empty()) << "line " << LineNo << ": " << Line;
    if (ValStr == "+Inf") {
      S.Value = HUGE_VAL;
    } else {
      char *End = nullptr;
      S.Value = std::strtod(ValStr.c_str(), &End);
      ASSERT_EQ(*End, '\0')
          << "line " << LineNo << ": unparseable value in: " << Line;
    }
    // The family this sample belongs to must have been declared with
    // # TYPE above it (histogram children map to the base family).
    std::string Family = S.Name;
    for (const char *Suffix : {"_bucket", "_sum", "_count"}) {
      size_t N = Family.size(), L = strlen(Suffix);
      if (N > L && Family.compare(N - L, L, Suffix) == 0 &&
          Types.count(Family.substr(0, N - L)) &&
          Types[Family.substr(0, N - L)] == "histogram") {
        Family = Family.substr(0, N - L);
        break;
      }
    }
    EXPECT_TRUE(Types.count(Family))
        << "line " << LineNo << ": sample for undeclared family: " << Line;
    EXPECT_TRUE(Helped.count(Family))
        << "line " << LineNo << ": family missing # HELP: " << Line;
    Samples.push_back(std::move(S));
  }

  /// Every histogram series: buckets cumulative-monotone in `le`, and
  /// the +Inf bucket exactly equals the series' `_count`.
  void checkHistograms() const {
    // (family, labels-without-le) -> (le -> cumulative value)
    std::map<std::pair<std::string, std::string>, std::map<double, double>>
        Buckets;
    std::map<std::pair<std::string, std::string>, double> Counts;
    for (const Sample &S : Samples) {
      const std::string &N = S.Name;
      if (N.size() > 7 && N.compare(N.size() - 7, 7, "_bucket") == 0) {
        auto It = S.Labels.find("le");
        ASSERT_NE(It, S.Labels.end()) << N << " bucket without le";
        double Le = It->second == "+Inf" ? HUGE_VAL
                                         : std::strtod(It->second.c_str(),
                                                       nullptr);
        Buckets[{N.substr(0, N.size() - 7), S.labelKey("le")}][Le] = S.Value;
      } else if (N.size() > 6 && N.compare(N.size() - 6, 6, "_count") == 0) {
        Counts[{N.substr(0, N.size() - 6), S.labelKey()}] = S.Value;
      }
    }
    ASSERT_FALSE(Buckets.empty());
    for (const auto &KV : Buckets) {
      double Prev = -1;
      double InfVal = -1;
      for (const auto &LeVal : KV.second) {
        EXPECT_GE(LeVal.second, Prev)
            << KV.first.first << "{" << KV.first.second
            << "}: buckets not cumulative at le=" << LeVal.first;
        Prev = LeVal.second;
        if (LeVal.first == HUGE_VAL)
          InfVal = LeVal.second;
      }
      ASSERT_GE(InfVal, 0.0)
          << KV.first.first << "{" << KV.first.second << "}: no +Inf bucket";
      auto CountIt = Counts.find(KV.first);
      ASSERT_NE(CountIt, Counts.end())
          << KV.first.first << "{" << KV.first.second << "}: no _count";
      EXPECT_EQ(InfVal, CountIt->second)
          << KV.first.first << "{" << KV.first.second
          << "}: +Inf bucket != _count";
    }
  }

  /// Family \p Base's series (labels without `le`) -> their `le` values.
  std::map<std::string, std::set<std::string>>
  bucketBounds(const std::string &Base) const {
    std::map<std::string, std::set<std::string>> Out;
    for (const Sample &S : Samples)
      if (S.Name == Base + "_bucket")
        Out[S.labelKey("le")].insert(S.Labels.at("le"));
    return Out;
  }

  /// name+labels -> value for counter-ish samples (_total/_count/_bucket).
  std::map<std::string, double> counterValues() const {
    std::map<std::string, double> Out;
    for (const Sample &S : Samples) {
      const std::string &N = S.Name;
      bool Counter = false;
      for (const char *Suffix : {"_total", "_count", "_bucket", "_sum"}) {
        size_t L = strlen(Suffix);
        if (N.size() > L && N.compare(N.size() - L, L, Suffix) == 0)
          Counter = true;
      }
      if (Counter)
        Out[N + "{" + S.labelKey() + "}"] = S.Value;
    }
    return Out;
  }
};

class MetricsExpositionTest : public ::testing::Test {
protected:
  void SetUp() override {
    DocStore Docs;
    Docs.put("/index.html", "<html>home</html>");
    Docs.put("/doc.html", "<html>doc</html>");
    Docs.fillSynthetic(4, 256);
    ASSERT_FALSE(App.init(std::move(Docs)));
    App.enableAdmin(RT.controller());

    net::PoolOptions O;
    O.Workers = kWorkers;
    O.PollTimeoutMs = 2;
    Pool = std::make_unique<net::ReactorPool>(
        [this](const RequestHead &Head, std::string_view Raw,
               std::string &Out, SharedBody &Body) {
          App.handleInto(Head, Raw, Out, Body);
        },
        O);
    Pool->setUpdateRuntime(RT);
    App.attachPool(*Pool);
    ASSERT_FALSE(Pool->start());
  }

  void TearDown() override { Pool->stop(); }

  Runtime RT;
  FlashedApp App{RT};
  std::unique_ptr<net::ReactorPool> Pool;
};

TEST_F(MetricsExpositionTest, EveryLineParsesAndCountersAreMonotone) {
  // Some traffic first so serve histograms have observations.
  for (int I = 0; I != 16; ++I) {
    Expected<FetchResult> R = httpGet(Pool->port(), "/doc.html");
    ASSERT_TRUE(R) << R.takeError().str();
    EXPECT_EQ(R->Status, 200);
  }

  Expected<FetchResult> First = httpGet(Pool->port(), "/admin/metrics");
  ASSERT_TRUE(First) << First.takeError().str();
  EXPECT_EQ(First->Status, 200);
  EXPECT_NE(First->Headers.find("text/plain; version=0.0.4"),
            std::string::npos)
      << First->Headers;

  Exposition E1;
  E1.parse(First->Body);
  if (::testing::Test::HasFatalFailure())
    return;
  ASSERT_GT(E1.Samples.size(), 20u);
  E1.checkHistograms();

  // Stage AND commit a live VTAL patch through the admin plane, then
  // re-scrape: every counter must be monotone across the update, and
  // the update-pipeline instrumentation must have produced samples.
  Expected<FetchResult> Post = httpPost(
      Pool->port(), "/admin/patches", vtalParseFixPatchText(), "text/plain");
  ASSERT_TRUE(Post) << Post.takeError().str();
  EXPECT_EQ(Post->Status, 202);
  for (int Spin = 0; Spin != 2000 && RT.updatesApplied() < 1; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_GE(RT.updatesApplied(), 1u);
  // The patched handler must run so VTAL call counters move.
  for (int I = 0; I != 8; ++I) {
    Expected<FetchResult> R = httpGet(Pool->port(), "/doc.html?x=1");
    ASSERT_TRUE(R);
    EXPECT_EQ(R->Status, 200);
  }

  Expected<FetchResult> Second = httpGet(Pool->port(), "/admin/metrics");
  ASSERT_TRUE(Second) << Second.takeError().str();
  Exposition E2;
  E2.parse(Second->Body);
  if (::testing::Test::HasFatalFailure())
    return;
  E2.checkHistograms();

  std::map<std::string, double> C1 = E1.counterValues();
  std::map<std::string, double> C2 = E2.counterValues();
  ASSERT_FALSE(C1.empty());
  for (const auto &KV : C1) {
    auto It = C2.find(KV.first);
    ASSERT_NE(It, C2.end()) << "series disappeared: " << KV.first;
    EXPECT_GE(It->second, KV.second)
        << "counter went backwards: " << KV.first;
  }

  // The flight-recorder satellites are all exposed.
  const std::string &B = Second->Body;
  EXPECT_NE(B.find("dsu_vtal_calls_total"), std::string::npos);
  EXPECT_NE(B.find("dsu_vtal_fuel_total"), std::string::npos);
  EXPECT_NE(B.find("dsu_vtal_traps_total"), std::string::npos);
  EXPECT_NE(B.find("dsu_update_phase_us_bucket{phase=\"verify\""),
            std::string::npos);
  EXPECT_NE(B.find("dsu_update_phase_us_bucket{phase=\"queue_wait\""),
            std::string::npos);
  EXPECT_NE(B.find("dsu_request_duration_us_bucket{worker=\"0\""),
            std::string::npos);
  EXPECT_NE(B.find("dsu_request_duration_us_bucket{worker=\"1\""),
            std::string::npos);

  // The committed rolling update moved the pipeline counters.
  auto Get = [](const std::map<std::string, double> &M,
                const std::string &K) {
    auto It = M.find(K);
    return It == M.end() ? -1.0 : It->second;
  };
  EXPECT_GT(Get(C2, "dsu_updates_applied_total{}"),
            Get(C1, "dsu_updates_applied_total{}"));
  EXPECT_GT(Get(C2, "dsu_vtal_calls_total{}"), 0.0);

  // One bucket ladder under every histogram family: each series still
  // prints every `le` bound its family's own table printed before the
  // tables were merged (checkHistograms above holds +Inf == _count).
  const std::pair<const char *, std::vector<std::string>> Families[] = {
      {"dsu_stage_to_commit_us",
       {"100", "500", "1000", "5000", "10000", "50000", "250000", "+Inf"}},
      {"dsu_update_phase_us",
       {"100", "500", "1000", "5000", "10000", "50000", "250000", "+Inf"}},
      {"dsu_update_pause_us",
       {"50", "100", "250", "500", "1000", "5000", "25000", "+Inf"}},
      {"dsu_request_duration_us",
       {"10", "50", "100", "500", "1000", "10000", "100000", "+Inf"}},
  };
  for (const auto &F : Families) {
    std::map<std::string, std::set<std::string>> Series =
        E2.bucketBounds(F.first);
    EXPECT_FALSE(Series.empty()) << F.first;
    for (const auto &KV : Series)
      for (const std::string &Le : F.second)
        EXPECT_TRUE(KV.second.count(Le))
            << F.first << "{" << KV.first << "} lost le=\"" << Le << "\"";
  }

  // dsu_stage_to_commit_us renders the queue-wait phase histogram.
  for (const char *Part : {"_count", "_sum"}) {
    std::string Phase = std::string("dsu_update_phase_us") + Part +
                        "{phase=\"queue_wait\",}";
    std::string S2C = std::string("dsu_stage_to_commit_us") + Part + "{}";
    EXPECT_GE(Get(C2, S2C), 0.0) << S2C;
    EXPECT_EQ(Get(C2, S2C), Get(C2, Phase)) << S2C << " vs " << Phase;
  }
  EXPECT_GT(Get(C2, "dsu_stage_to_commit_us_count{}"), 0.0);
}

} // namespace
