// Minimal command-line flag parsing for the tools: --name value and
// --name=value forms, with typed lookups and unknown-flag detection.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace bcn {

class ArgParser {
 public:
  // Parses argv; flags must start with "--".  A flag followed by another
  // flag (or nothing) is treated as boolean true.
  ArgParser(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::optional<std::string> get(const std::string& name) const;
  double get_double(const std::string& name, double fallback) const;
  int get_int(const std::string& name, int fallback) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

  // Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }
  // Flags that were parsed, for unknown-flag checks.
  std::vector<std::string> flag_names() const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

// Worker-count knob shared by every tool/bench: the --threads flag, with
// the BCN_THREADS environment variable as fallback when the flag is
// absent.  Returns `fallback` when neither is set.  The convention is
// 0 = all hardware threads, 1 = serial (see exec::resolve_threads).
int thread_count(const ArgParser& args, int fallback = 1);

// Shard-count knob: the --shards flag, with BCN_SHARDS (when non-empty)
// as fallback, stored in *out; *out is left untouched when neither is
// set.  Unlike thread_count the parse is strict -- at most six decimal
// digits, nothing else -- because a malformed shard count must be a
// usage error, not a silent single-shard run: it prints "--shards: bad
// shard count ..." to stderr and returns false.  0 = all hardware
// threads, resolved by the caller.
bool shard_count(const ArgParser& args, int* out);

// Flags that were passed but are not in `known` — callers reject these
// instead of silently ignoring a typo like --thread or --grd.
std::vector<std::string> unknown_flags(const ArgParser& args,
                                       const std::vector<std::string>& known);

// Convenience guard: prints "unknown flag --x (try --help)" to stderr for
// each unknown flag and returns false if any were found.
bool reject_unknown_flags(const ArgParser& args,
                          const std::vector<std::string>& known);

}  // namespace bcn
