// Minimal --key=value command-line parsing for the bench and example
// binaries.  Unrecognized positional arguments are collected; "--help"
// handling is left to the caller.
//
// Typed getters reject malformed values (FlagError naming the flag)
// rather than truncating or aborting mid-parse.  A mistyped flag *name*
// would otherwise be silently ignored — the value map accepts any key — so
// binaries with a fixed flag set should call require_known() with it once
// after construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace pubsub {

// Every error Flags raises: a malformed or negative value, or an unknown
// flag name.  A caller can catch it apart from runtime failures and report
// a usage error.
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  bool has(const std::string& key) const { return values_.count(key) > 0; }
  std::string get(const std::string& key, const std::string& def) const;
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  // A size, length or cadence: get_int that also rejects a negative value,
  // which a cast to std::size_t would wrap to 2^64 - n.
  std::size_t get_count(const std::string& key, std::size_t def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  // Flags given on the command line that are not in `known` (sorted, one
  // entry per flag).  require_known throws FlagError listing them — call
  // it with the binary's full flag set so a typo like --thread=8 fails
  // loudly instead of silently running single-threaded.
  std::vector<std::string> unknown_flags(const std::vector<std::string>& known) const;
  void require_known(const std::vector<std::string>& known) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace pubsub
