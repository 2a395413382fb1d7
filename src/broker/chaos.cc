#include "broker/chaos.h"

#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/serialize.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "workload/stock_model.h"
#include "workload/trace.h"

namespace pubsub {

std::vector<JournalRecord> BuildChaosSchedule(const TransitStubNetwork& net,
                                              const Workload& base,
                                              std::size_t num_events,
                                              std::size_t churn_every,
                                              std::uint64_t seed) {
  // Draw-for-draw replica of serve-replay: trace first, then a split churn
  // stream, with per-step sub-streams salted by the trace index.  Changing
  // any draw here breaks serve-replay/chaos stream equivalence — both are
  // pinned by tests.
  Rng trace_rng(seed);
  const std::vector<TraceEvent> trace =
      GenerateStockTrace(net, {}, {}, num_events, trace_rng);
  Rng churn_rng = trace_rng.split(1);

  std::vector<SubscriberId> live(base.num_subscribers());
  for (std::size_t i = 0; i < live.size(); ++i)
    live[i] = static_cast<SubscriberId>(i);
  auto next_id = static_cast<SubscriberId>(base.num_subscribers());

  std::vector<JournalRecord> schedule;
  schedule.reserve(trace.size() +
                   (churn_every > 0 ? trace.size() / churn_every : 0));
  std::uint64_t seq = 0;
  const auto push = [&](BrokerCommand cmd, double time_ms) {
    cmd.time_ms = time_ms;
    JournalRecord rec;
    rec.seq = ++seq;
    rec.cmd = std::move(cmd);
    schedule.push_back(std::move(rec));
  };

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const double now_ms = trace[i].timestamp * 1000.0;
    if (churn_every > 0 && (i + 1) % churn_every == 0) {
      auto action = churn_rng.uniform_int(0, 2);
      if (live.empty()) action = 0;  // nothing left to update/remove
      if (action == 0) {
        Rng sub_rng = churn_rng.split(i);
        const Workload one = GenerateStockSubscriptions(net, 1, {}, sub_rng);
        BrokerCommand cmd;
        cmd.type = BrokerCommandType::kSubscribe;
        cmd.node = one.subscribers[0].node;
        cmd.interest = one.subscribers[0].interest;
        push(std::move(cmd), now_ms);
        live.push_back(next_id++);
      } else if (action == 1 || live.size() <= 1) {
        Rng sub_rng = churn_rng.split(i);
        const Workload one = GenerateStockSubscriptions(net, 1, {}, sub_rng);
        const auto pick = static_cast<std::size_t>(churn_rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        BrokerCommand cmd;
        cmd.type = BrokerCommandType::kUpdate;
        cmd.subscriber = live[pick];
        cmd.interest = one.subscribers[0].interest;
        push(std::move(cmd), now_ms);
      } else {
        const auto pick = static_cast<std::size_t>(churn_rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        BrokerCommand cmd;
        cmd.type = BrokerCommandType::kUnsubscribe;
        cmd.subscriber = live[pick];
        push(std::move(cmd), now_ms);
        live[pick] = live.back();
        live.pop_back();
      }
    }
    BrokerCommand cmd;
    cmd.type = BrokerCommandType::kPublish;
    cmd.node = trace[i].pub.origin;
    cmd.point = trace[i].pub.point;
    push(std::move(cmd), now_ms);
  }
  return schedule;
}

namespace {

// Kill-style faults rotated through by the driver.  `torn:` gets a byte
// count appended at arm time.
struct KillSite {
  const char* site;
  const char* action;
};
constexpr KillSite kKillSites[] = {
    {"journal.write", "crash"},
    {"journal.write", "torn:"},
    {"journal.flush", "crash"},
    {"broker.publish.pre_journal", "crash"},
    {"broker.publish.post_journal", "crash"},
    {"snapshot.write", "crash"},
    {"snapshot.flush", "crash"},
};

}  // namespace

ChaosReport RunChaos(const TransitStubNetwork& net, const Workload& base,
                     const PublicationModel& pub, const ChaosOptions& opts) {
  FailPoints& fp = FailPoints::Instance();
  fp.clear();

  ChaosReport report;
  const std::vector<JournalRecord> schedule = BuildChaosSchedule(
      net, base, opts.num_events, opts.churn_every, opts.seed);
  report.commands = schedule.size();
  const std::uint64_t last_seq = schedule.empty() ? 0 : schedule.back().seq;

  // Un-faulted reference run: one digest per sequence number, so any
  // recovered incarnation can be checked at whatever seq it landed on.
  std::vector<std::uint64_t> ref_digest(static_cast<std::size_t>(last_seq) + 1);
  {
    Broker ref(base, pub, net.graph, opts.broker);
    ref_digest[0] = ref.state_digest();
    for (const JournalRecord& rec : schedule) {
      ref.apply(rec);
      ref_digest[static_cast<std::size_t>(rec.seq)] = ref.state_digest();
    }
    report.reference_digest = ref_digest[static_cast<std::size_t>(last_seq)];
  }

  // The "disk": what survives a kill.  The sink stream models an append-only
  // file whose accepted bytes persist (fsync failures are injected
  // separately at journal.flush); snapshots replace atomically, so a crash
  // mid-write leaves the previous snapshot in place.
  std::string disk_journal;
  std::string disk_snapshot;

  std::unique_ptr<Broker> broker;
  std::unique_ptr<std::ostringstream> sink;

  const auto persist_journal = [&] {
    if (sink != nullptr) disk_journal = sink->str();
  };
  const auto snapshot_now = [&] {
    std::ostringstream os;
    broker->write_snapshot(os);  // may throw InjectedCrash (snapshot.write)
    disk_snapshot = os.str();
  };
  const auto record_kill = [&](const std::string& site) {
    ++report.cycles;
    ++report.kills_by_site[site];
  };

  // Kill/recover: parse the disk (dropping a torn tail and truncating the
  // journal to the last complete record, as a real recovery would), rebuild
  // the broker, reattach the journal, and verify bit-identity with the
  // reference at the recovered seq.  Returns false if recovery itself was
  // killed (recover.replay armed).
  const auto recover = [&]() -> bool {
    std::istringstream jin(disk_journal);
    JournalReadResult jr = ReadJournalLenient(jin);
    if (jr.torn_tail) {
      ++report.torn_tails;
      std::ostringstream os;
      WriteJournalHeader(os, jr.journal.dims);
      for (const JournalRecord& rec : jr.journal.records)
        WriteJournalRecord(os, rec, jr.journal.dims);
      disk_journal = os.str();
    }
    std::istringstream sin(disk_snapshot);
    const BrokerSnapshot snap = ReadBrokerSnapshot(sin);
    try {
      broker =
          Broker::Recover(snap, jr.journal.records, pub, net.graph, opts.broker);
    } catch (const InjectedCrash& e) {
      record_kill(e.site());
      broker.reset();
      return false;
    }
    ++report.recoveries;
    sink = std::make_unique<std::ostringstream>(disk_journal, std::ios::ate);
    broker->set_journal(sink.get(), /*write_header=*/false);
    ++report.digest_checks;
    if (broker->state_digest() !=
        ref_digest[static_cast<std::size_t>(broker->seq())])
      ++report.digest_mismatches;
    return true;
  };

  // Apply up to max_cmds scheduled commands with whatever fault is armed.
  // A BrokerDegradedError is handled in place: fail points are cleared,
  // clear_degraded() completes the interrupted append (consuming the seq),
  // and the run continues — that IS the graceful-degradation path.
  const auto drive = [&](std::size_t max_cmds) {
    for (std::size_t n = 0;
         n < max_cmds && broker != nullptr && broker->seq() < last_seq; ++n) {
      const JournalRecord& rec =
          schedule[static_cast<std::size_t>(broker->seq())];
      try {
        broker->apply(rec);
        if (opts.snapshot_every > 0 &&
            broker->seq() % opts.snapshot_every == 0)
          snapshot_now();
      } catch (const InjectedCrash& e) {
        persist_journal();
        record_kill(e.site());
        broker.reset();
        sink.reset();
        return;
      } catch (const BrokerDegradedError&) {
        ++report.degraded_entries;
        fp.clear();
        if (!broker->clear_degraded())
          throw std::logic_error(
              "chaos: clear_degraded failed with fail points disarmed");
        ++report.digest_checks;
        if (broker->state_digest() !=
            ref_digest[static_cast<std::size_t>(broker->seq())])
          ++report.digest_mismatches;
        return;  // fault spent
      }
    }
  };

  // Boot the first incarnation fresh (cold clustering, seq 0) and lay down
  // the initial disk state.
  broker = std::make_unique<Broker>(base, pub, net.graph, opts.broker);
  {
    std::ostringstream header;
    WriteJournalHeader(header, base.space.dims());
    disk_journal = header.str();
  }
  sink = std::make_unique<std::ostringstream>(disk_journal, std::ios::ate);
  broker->set_journal(sink.get(), /*write_header=*/false);
  snapshot_now();

  Rng chaos_rng(opts.chaos_seed);
  while (true) {
    // Clean phase: nothing armed while we recover and make the guaranteed
    // one-command forward progress of this round.
    fp.clear();
    if (broker == nullptr) {
      if (report.cycles < opts.cycles && chaos_rng.uniform_int(0, 3) == 0)
        fp.configure("recover.replay=crash*1^" +
                     std::to_string(chaos_rng.uniform_int(0, 3)));
      const bool ok = recover();
      fp.clear();
      if (!ok) continue;
    }
    if (broker->seq() < last_seq) {
      broker->apply(schedule[static_cast<std::size_t>(broker->seq())]);
      if (opts.snapshot_every > 0 && broker->seq() % opts.snapshot_every == 0)
        snapshot_now();
    }

    if (report.cycles >= opts.cycles) {
      // Fault budget spent: run the rest of the schedule clean.
      while (broker->seq() < last_seq) {
        broker->apply(schedule[static_cast<std::size_t>(broker->seq())]);
        if (opts.snapshot_every > 0 && broker->seq() % opts.snapshot_every == 0)
          snapshot_now();
      }
      break;
    }

    if (broker->seq() >= last_seq) {
      // Commands exhausted with budget left: cycle hard kills (and armed
      // recoveries) over the remaining journal tail.
      std::istringstream sin(disk_snapshot);
      if (ReadBrokerSnapshot(sin).seq >= last_seq) break;  // nothing to replay
      persist_journal();
      broker.reset();
      sink.reset();
      record_kill("external.kill");
      continue;
    }

    // Arm one scripted fault and drive into it.  Roughly one round in five
    // exercises degraded mode (persistent fsync failure) instead of a kill.
    if (chaos_rng.uniform_int(0, 4) == 0) {
      fp.configure("journal.flush=error");
      drive(10);
    } else {
      const auto& ks = kKillSites[static_cast<std::size_t>(chaos_rng.uniform_int(
          0, static_cast<std::int64_t>(std::size(kKillSites)) - 1))];
      std::string spec = std::string(ks.site) + "=" + ks.action;
      if (spec.back() == ':')  // torn: pick how many bytes land
        spec += std::to_string(chaos_rng.uniform_int(1, 40));
      const bool snapshot_site = spec.rfind("snapshot.", 0) == 0;
      if (snapshot_site && opts.snapshot_every > 0) {
        // Arm the fault at the next organic checkpoint (+SEQ keeps it
        // dormant until the broker reaches that command) and drive the
        // schedule into it, so the fault fires on the natural cadence path
        // inside drive() instead of a forced snapshot call.
        const std::uint64_t next =
            (broker->seq() / opts.snapshot_every + 1) * opts.snapshot_every;
        spec += "*1+" + std::to_string(next);
        fp.configure(spec);
        drive(static_cast<std::size_t>(next - broker->seq()) + 1);
      } else if (snapshot_site) {
        // No cadence configured: snapshots never happen organically, so
        // force one into the armed fault.
        spec += "*1^" + std::to_string(chaos_rng.uniform_int(0, 3));
        fp.configure(spec);
        drive(1);
        if (broker != nullptr) {
          try {
            snapshot_now();
          } catch (const InjectedCrash& e) {
            persist_journal();
            record_kill(e.site());
            broker.reset();
            sink.reset();
          }
        }
      } else {
        spec += "*1^" + std::to_string(chaos_rng.uniform_int(0, 3));
        fp.configure(spec);
        drive(10);
      }
    }
    fp.clear();
  }

  fp.clear();
  report.final_seq = broker->seq();
  report.final_digest = broker->state_digest();
  report.digests_match = report.final_seq == last_seq &&
                         report.final_digest == report.reference_digest &&
                         report.digest_mismatches == 0;
  return report;
}

std::string FormatChaosReport(const ChaosReport& r) {
  std::ostringstream os;
  os << "commands          " << r.commands << " (final seq " << r.final_seq
     << ")\n"
     << "kill/recover      " << r.cycles << " kills, " << r.recoveries
     << " recoveries, " << r.torn_tails << " torn tails dropped\n"
     << "degraded rounds   " << r.degraded_entries << "\n"
     << "digest checks     " << r.digest_checks << " ("
     << r.digest_mismatches << " mismatches)\n";
  os << "kills by site\n";
  for (const auto& [site, n] : r.kills_by_site)
    os << "  " << site << "  " << n << "\n";
  os << std::hex;
  os << "final digest      " << r.final_digest << "\n"
     << "reference digest  " << r.reference_digest << "\n";
  os << std::dec;
  os << "verdict           "
     << (r.digests_match && r.digest_mismatches == 0 ? "bit-identical"
                                                     : "MISMATCH")
     << "\n";
  return os.str();
}

}  // namespace pubsub
