#include "util/failpoint.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace pubsub {
namespace {

// splitmix64: tiny, seedable, and plenty for fault scheduling.
std::uint64_t NextRandom(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

FailAction ActionByName(const std::string& name, const std::string& entry) {
  if (name == "off") return FailAction::kOff;
  if (name == "error") return FailAction::kError;
  if (name == "crash") return FailAction::kCrash;
  if (name == "torn") return FailAction::kTorn;
  if (name == "delay") return FailAction::kDelay;
  throw std::invalid_argument("failpoint '" + entry + "': unknown action '" +
                              name + "' (want off|error|crash|torn|delay)");
}

// True when `action` is one of the '|'-separated names in `actions`.
bool Implements(std::string_view actions, std::string_view action) {
  while (true) {
    const std::size_t bar = actions.find('|');
    if (actions.substr(0, bar) == action) return true;
    if (bar == std::string_view::npos) return false;
    actions.remove_prefix(bar + 1);
  }
}

std::uint64_t ParseUnsigned(const std::string& tok, const std::string& entry) {
  try {
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(tok, &pos);
    if (pos != tok.size()) throw std::invalid_argument(tok);
    return static_cast<std::uint64_t>(v);
  } catch (const std::exception&) {
    throw std::invalid_argument("failpoint '" + entry + "': bad integer '" +
                                tok + "'");
  }
}

double ParseProbability(const std::string& tok, const std::string& entry) {
  try {
    std::size_t pos = 0;
    const double p = std::stod(tok, &pos);
    if (pos != tok.size() || p < 0.0 || p > 1.0)
      throw std::invalid_argument(tok);
    return p;
  } catch (const std::exception&) {
    throw std::invalid_argument("failpoint '" + entry +
                                "': bad probability '" + tok + "'");
  }
}

}  // namespace

struct FailPoints::Impl {
  struct Entry {
    FailAction action = FailAction::kOff;
    std::size_t arg = 0;
    std::uint64_t remaining = UINT64_MAX;  // *COUNT budget
    std::uint64_t skip = 0;                // ^SKIP evaluations to let pass
    std::uint64_t arm_at_seq = 0;          // +SEQ dormancy gate (0 = armed)
    double prob = 1.0;                     // @PROB per evaluation
  };
  mutable std::mutex mu;
  std::map<std::string, Entry> entries;
  std::map<std::string, std::uint64_t> hit_count;
  std::map<std::string, std::uint64_t> fire_count;
  std::uint64_t rng_state = 0;
  std::atomic<std::uint64_t> current_seq{0};
};

FailPoints::FailPoints() : impl_(new Impl) {}
FailPoints::~FailPoints() { delete impl_; }

FailPoints& FailPoints::Instance() {
  static FailPoints instance;
  return instance;
}

void FailPoints::configure(const std::string& spec) {
  // Parse and check every entry before touching the registry, so a spec
  // that throws arms none of its entries.
  std::vector<std::pair<std::string, Impl::Entry>> parsed;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find_first_of(",;", start);
    if (end == std::string::npos) end = spec.size();
    std::string entry = spec.substr(start, end - start);
    start = end + 1;
    // Trim surrounding whitespace.
    const std::size_t b = entry.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    entry = entry.substr(b, entry.find_last_not_of(" \t") - b + 1);

    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0)
      throw std::invalid_argument("failpoint '" + entry +
                                  "': want site=action[:arg][*count][^skip][+seq][@prob]");
    const std::string site = entry.substr(0, eq);
    const std::vector<FailPointSite>& known = KnownSites();
    const auto known_site =
        std::find_if(known.begin(), known.end(),
                     [&site](const FailPointSite& k) { return site == k.name; });
    if (known_site == known.end())
      throw std::invalid_argument("failpoint '" + entry + "': unknown site '" +
                                  site + "' (see docs/OPERATIONS.md)");
    std::string rest = entry.substr(eq + 1);

    Impl::Entry e;
    // Peel decorations from the end; each may appear at most once.
    const auto peel = [&rest, &entry](char tag) -> std::string {
      const std::size_t pos = rest.find_last_of(tag);
      if (pos == std::string::npos) return "";
      std::string tok = rest.substr(pos + 1);
      if (tok.empty())
        throw std::invalid_argument("failpoint '" + entry + "': empty '" +
                                    std::string(1, tag) + "' argument");
      rest.erase(pos);
      return tok;
    };
    // Peel order is the reverse of the grammar order.  '@' before '+' so a
    // probability like 1e+0 keeps its exponent sign.
    const std::string prob_tok = peel('@');
    const std::string seq_tok = peel('+');
    const std::string skip_tok = peel('^');
    const std::string count_tok = peel('*');
    const std::string arg_tok = peel(':');
    if (!prob_tok.empty()) e.prob = ParseProbability(prob_tok, entry);
    if (!seq_tok.empty()) e.arm_at_seq = ParseUnsigned(seq_tok, entry);
    if (!skip_tok.empty()) e.skip = ParseUnsigned(skip_tok, entry);
    if (!count_tok.empty()) e.remaining = ParseUnsigned(count_tok, entry);
    if (!arg_tok.empty())
      e.arg = static_cast<std::size_t>(ParseUnsigned(arg_tok, entry));
    e.action = ActionByName(rest, entry);
    if (e.action != FailAction::kOff && !Implements(known_site->actions, rest))
      throw std::invalid_argument("failpoint '" + entry + "': site '" + site +
                                  "' implements only " + known_site->actions);
    parsed.emplace_back(site, e);
  }

  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const auto& [site, e] : parsed) {
    if (e.action == FailAction::kOff)
      impl_->entries.erase(site);
    else
      impl_->entries[site] = e;
  }
  active_.store(!impl_->entries.empty(), std::memory_order_relaxed);
}

void FailPoints::configure_from_env() {
  const char* seed = std::getenv("PUBSUB_FAILPOINTS_SEED");
  if (seed != nullptr) set_seed(ParseUnsigned(seed, "PUBSUB_FAILPOINTS_SEED"));
  const char* spec = std::getenv("PUBSUB_FAILPOINTS");
  if (spec != nullptr && spec[0] != '\0') configure(spec);
}

void FailPoints::clear() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->entries.clear();
  impl_->hit_count.clear();
  impl_->fire_count.clear();
  impl_->current_seq.store(0, std::memory_order_relaxed);
  active_.store(false, std::memory_order_relaxed);
}

void FailPoints::advance_sequence(std::uint64_t seq) {
  impl_->current_seq.store(seq, std::memory_order_relaxed);
}

void FailPoints::set_seed(std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->rng_state = seed;
}

FailPointDecision FailPoints::eval(const std::string& site) {
  if (!active()) return {};
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->entries.find(site);
  if (it == impl_->entries.end()) return {};
  ++impl_->hit_count[site];
  Impl::Entry& e = it->second;
  // Dormant until the component reaches the +SEQ position; dormant
  // evaluations consume neither skip nor count budget.
  if (e.arm_at_seq > 0 &&
      impl_->current_seq.load(std::memory_order_relaxed) < e.arm_at_seq)
    return {};
  if (e.skip > 0) {
    --e.skip;
    return {};
  }
  if (e.remaining == 0) return {};
  if (e.prob < 1.0) {
    const double draw = static_cast<double>(NextRandom(impl_->rng_state) >> 11) *
                        0x1.0p-53;  // uniform [0, 1)
    if (draw >= e.prob) return {};
  }
  if (e.remaining != UINT64_MAX) --e.remaining;
  ++impl_->fire_count[site];
  return {e.action, e.arg};
}

std::uint64_t FailPoints::hits(const std::string& site) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->hit_count.find(site);
  return it == impl_->hit_count.end() ? 0 : it->second;
}

std::uint64_t FailPoints::fired(const std::string& site) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->fire_count.find(site);
  return it == impl_->fire_count.end() ? 0 : it->second;
}

const std::vector<FailPointSite>& FailPoints::KnownSites() {
  // Sorted by name; DESIGN.md §9 documents the naming convention and
  // docs/OPERATIONS.md the recovery behaviour at each site.
  static const std::vector<FailPointSite> sites = {
      {"broker.publish.post_journal",
       "crash after the WAL append, before the state mutation", "crash"},
      {"broker.publish.pre_journal",
       "crash before the WAL append (command lost entirely)", "crash"},
      {"fleet.shard.publish",
       "delay = add ARG ms of synthetic publish latency on shard 0 (slow-"
       "shard drill for the watchdog)",
       "delay"},
      {"journal.flush", "journal fsync: error = flush failure", "error|crash"},
      {"journal.write", "journal append: torn/short/crashed record write",
       "error|crash|torn"},
      {"recover.replay", "crash while replaying the journal tail", "crash"},
      {"snapshot.flush", "snapshot fsync: error = flush failure",
       "error|crash"},
      {"snapshot.write", "snapshot serialization: torn/crashed write",
       "error|crash|torn"},
  };
  return sites;
}

}  // namespace pubsub
