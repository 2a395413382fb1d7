// Tests for the fail-point registry (util/failpoint) and the injectable
// stream sink built on it (io/file).  The registry is process-global, so
// every test runs under a fixture that clears it on both sides.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "io/file.h"
#include "util/failpoint.h"

namespace pubsub {
namespace {

class FailPointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoints::Instance().clear(); }
  void TearDown() override { FailPoints::Instance().clear(); }
  FailPoints& fp() { return FailPoints::Instance(); }
};

TEST_F(FailPointTest, InactiveRegistryReturnsOff) {
  EXPECT_FALSE(fp().active());
  const FailPointDecision d = fp().eval("journal.flush");
  EXPECT_EQ(d.action, FailAction::kOff);
  EXPECT_EQ(fp().hits("journal.flush"), 0u);  // fast path: not even counted
}

TEST_F(FailPointTest, ParsesActionAndArg) {
  fp().configure("journal.write=error:7");
  EXPECT_TRUE(fp().active());
  const FailPointDecision d = fp().eval("journal.write");
  EXPECT_EQ(d.action, FailAction::kError);
  EXPECT_EQ(d.arg, 7u);
  // Unarmed sites stay off even while the registry is active.
  EXPECT_EQ(fp().eval("journal.flush").action, FailAction::kOff);
}

TEST_F(FailPointTest, CountBudgetDisarmsAfterFiring) {
  fp().configure("snapshot.write=crash*2");
  EXPECT_EQ(fp().eval("snapshot.write").action, FailAction::kCrash);
  EXPECT_EQ(fp().eval("snapshot.write").action, FailAction::kCrash);
  EXPECT_EQ(fp().eval("snapshot.write").action, FailAction::kOff);
  EXPECT_EQ(fp().hits("snapshot.write"), 3u);
  EXPECT_EQ(fp().fired("snapshot.write"), 2u);
}

TEST_F(FailPointTest, SkipLetsEarlyEvaluationsPass) {
  fp().configure("journal.write=torn:5*1^2");
  EXPECT_EQ(fp().eval("journal.write").action, FailAction::kOff);
  EXPECT_EQ(fp().eval("journal.write").action, FailAction::kOff);
  const FailPointDecision d = fp().eval("journal.write");
  EXPECT_EQ(d.action, FailAction::kTorn);
  EXPECT_EQ(d.arg, 5u);
  EXPECT_EQ(fp().eval("journal.write").action, FailAction::kOff);  // budget spent
}

TEST_F(FailPointTest, OffEntryDisarmsAndListsParse) {
  fp().configure(" journal.flush=error , snapshot.flush=error ;recover.replay=crash");
  EXPECT_EQ(fp().eval("snapshot.flush").action, FailAction::kError);
  fp().configure("snapshot.flush=off,journal.flush=off,recover.replay=off");
  EXPECT_FALSE(fp().active());  // everything disarmed again
}

TEST_F(FailPointTest, ProbabilityIsSeededAndReproducible) {
  const auto run = [this] {
    fp().clear();
    fp().set_seed(42);
    fp().configure("broker.publish.post_journal=crash@0.5");
    int fires = 0;
    for (int i = 0; i < 200; ++i)
      if (fp().eval("broker.publish.post_journal").action != FailAction::kOff)
        ++fires;
    return fires;
  };
  const int a = run();
  const int b = run();
  EXPECT_EQ(a, b);      // same seed, same schedule
  EXPECT_GT(a, 50);     // and actually probabilistic, not all-or-nothing
  EXPECT_LT(a, 150);
}

TEST_F(FailPointTest, MalformedSpecsThrow) {
  EXPECT_THROW(fp().configure("=crash"), std::invalid_argument);
  EXPECT_THROW(fp().configure("journal.flush"), std::invalid_argument);
  EXPECT_THROW(fp().configure("journal.flush=boom"), std::invalid_argument);
  EXPECT_THROW(fp().configure("journal.write=error:x"), std::invalid_argument);
  EXPECT_THROW(fp().configure("journal.write=crash*"), std::invalid_argument);
  EXPECT_THROW(fp().configure("journal.write=crash+"), std::invalid_argument);
  EXPECT_THROW(fp().configure("journal.write=crash+x"), std::invalid_argument);
  EXPECT_THROW(fp().configure("journal.write=crash@1.5"), std::invalid_argument);
  EXPECT_THROW(fp().configure("journal.write=crash@nope"), std::invalid_argument);
  // A site not compiled into the tree is rejected, never armed silently.
  EXPECT_THROW(fp().configure("jornal.flush=error"), std::invalid_argument);
  EXPECT_THROW(fp().configure("replica.apply=crash"), std::invalid_argument);
  EXPECT_THROW(fp().configure("promote.journal_handoff=crash"),
               std::invalid_argument);
  // An action the site's seam does not implement would run as a no-op or
  // as a different fault; it is rejected like an unknown site.
  for (const char* spec :
       {"journal.flush=delay:50", "snapshot.write=delay:1",
        "fleet.shard.publish=crash", "broker.publish.pre_journal=delay:5",
        "recover.replay=error", "journal.flush=torn:3"})
    EXPECT_THROW(fp().configure(spec), std::invalid_argument) << spec;
  EXPECT_FALSE(fp().active());
}

TEST_F(FailPointTest, RejectedSpecArmsNothing) {
  // The misspelt second entry rejects the whole spec, the valid first one
  // included: a later, unrelated configure must not find it armed.
  EXPECT_THROW(fp().configure("journal.flush=error,jornal.write=crash"),
               std::invalid_argument);
  EXPECT_EQ(fp().eval("journal.flush").action, FailAction::kOff);
  fp().configure("snapshot.write=crash*1+1000");
  EXPECT_EQ(fp().eval("journal.flush").action, FailAction::kOff);
}

TEST_F(FailPointTest, SeqGateKeepsSiteDormantUntilReported) {
  fp().configure("journal.write=error*1+40");
  EXPECT_EQ(fp().eval("journal.write").action, FailAction::kOff);  // seq 0
  fp().advance_sequence(39);
  EXPECT_EQ(fp().eval("journal.write").action, FailAction::kOff);
  fp().advance_sequence(40);
  EXPECT_EQ(fp().eval("journal.write").action, FailAction::kError);
  EXPECT_EQ(fp().eval("journal.write").action, FailAction::kOff);  // *1 spent
  EXPECT_EQ(fp().hits("journal.write"), 4u);   // dormant evals still counted
  EXPECT_EQ(fp().fired("journal.write"), 1u);
}

TEST_F(FailPointTest, DormantEvaluationsConsumeNeitherSkipNorCount) {
  fp().configure("snapshot.write=crash*1^1+10");
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(fp().eval("snapshot.write").action, FailAction::kOff);
  fp().advance_sequence(10);
  // The full ^1 skip and *1 budget are still intact after three dormant
  // evaluations — scheduling by seq does not drift with evaluation volume.
  EXPECT_EQ(fp().eval("snapshot.write").action, FailAction::kOff);  // skip
  EXPECT_EQ(fp().eval("snapshot.write").action, FailAction::kCrash);
  EXPECT_EQ(fp().eval("snapshot.write").action, FailAction::kOff);
}

TEST_F(FailPointTest, SequenceIsAPlainStoreNotARunningMax) {
  // Recovery replays from an older seq; the window must track the live
  // position, so reporting a smaller seq re-enters dormancy.
  fp().configure("journal.flush=error+40");
  fp().advance_sequence(50);
  EXPECT_EQ(fp().eval("journal.flush").action, FailAction::kError);
  fp().advance_sequence(10);
  EXPECT_EQ(fp().eval("journal.flush").action, FailAction::kOff);
}

TEST_F(FailPointTest, ClearResetsTheReportedSequence) {
  fp().configure("journal.flush=error+5");
  fp().advance_sequence(7);
  EXPECT_EQ(fp().eval("journal.flush").action, FailAction::kError);
  fp().clear();
  fp().configure("journal.flush=error+5");
  EXPECT_EQ(fp().eval("journal.flush").action, FailAction::kOff) << "seq leaked";
  fp().advance_sequence(5);
  EXPECT_EQ(fp().eval("journal.flush").action, FailAction::kError);
}

TEST_F(FailPointTest, ProbPeelsBeforeSeqSoExponentsSurvive) {
  // '@' is peeled before '+', so a scientific-notation probability keeps
  // its exponent sign instead of being misread as a +SEQ gate.
  fp().configure("journal.flush=error+2@1e+0");
  fp().advance_sequence(2);
  EXPECT_EQ(fp().eval("journal.flush").action, FailAction::kError);
}

TEST_F(FailPointTest, KnownSitesAreSortedAndDescribed) {
  const auto& sites = FailPoints::KnownSites();
  ASSERT_FALSE(sites.empty());
  bool has_flush = false;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_NE(sites[i].description[0], '\0') << sites[i].name;
    if (i > 0)
      EXPECT_LT(std::string(sites[i - 1].name), std::string(sites[i].name));
    if (std::string(sites[i].name) == "journal.flush") has_flush = true;
  }
  EXPECT_TRUE(has_flush);
}

TEST_F(FailPointTest, InjectedCrashIsNotARuntimeError) {
  // Ordinary catch (const std::runtime_error&) blocks must not swallow a
  // simulated process death — that is the whole point of the type.
  static_assert(!std::is_base_of_v<std::runtime_error, InjectedCrash>);
  const InjectedCrash e("journal.write");
  EXPECT_EQ(e.site(), "journal.write");
  EXPECT_NE(std::string(e.what()).find("journal.write"), std::string::npos);
}

TEST_F(FailPointTest, StreamSinkShortWriteAndFsyncError) {
  std::ostringstream os;
  StreamSink sink(os, "journal");
  fp().configure("journal.write=error:3*1");
  EXPECT_EQ(sink.write("abcdef", 6), 3u);  // short write: 3 bytes land
  EXPECT_EQ(sink.write("def", 3), 3u);     // budget spent: retry completes
  EXPECT_EQ(os.str(), "abcdef");
  fp().configure("journal.flush=error*1");
  EXPECT_FALSE(sink.flush());
  EXPECT_TRUE(sink.flush());
}

TEST_F(FailPointTest, StreamSinkTornWriteLandsPrefixThenDies) {
  std::ostringstream os;
  StreamSink sink(os, "journal");
  fp().configure("journal.write=torn:4*1");
  EXPECT_THROW(sink.write("abcdefgh", 8), InjectedCrash);
  EXPECT_EQ(os.str(), "abcd");  // the torn tail a recovery must drop
  fp().configure("journal.write=crash*1");
  EXPECT_THROW(sink.write("xyz", 3), InjectedCrash);
  EXPECT_EQ(os.str(), "abcd");  // crash-before-op: nothing reached the sink
}

TEST_F(FailPointTest, StreamSinkUsesItsSitePrefix) {
  std::ostringstream os;
  StreamSink sink(os, "snapshot");
  fp().configure("journal.write=crash");  // wrong seam: must not fire here
  EXPECT_EQ(sink.write("ok", 2), 2u);
  fp().configure("snapshot.write=crash*1");
  EXPECT_THROW(sink.write("no", 2), InjectedCrash);
  EXPECT_EQ(os.str(), "ok");
}

}  // namespace
}  // namespace pubsub
