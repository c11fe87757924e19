#include "common/args.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace bcn {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--flag value" unless the next token is another flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";
    }
  }
}

bool ArgParser::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::optional<std::string> ArgParser::get(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  return (end && *end == '\0') ? parsed : fallback;
}

int ArgParser::get_int(const std::string& name, int fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v->c_str(), &end, 10);
  return (end && *end == '\0') ? static_cast<int>(parsed) : fallback;
}

bool ArgParser::get_bool(const std::string& name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  return *v == "true" || *v == "1" || *v == "yes" || *v == "on";
}

std::vector<std::string> ArgParser::flag_names() const {
  std::vector<std::string> names;
  names.reserve(flags_.size());
  for (const auto& [name, value] : flags_) names.push_back(name);
  return names;
}

int thread_count(const ArgParser& args, int fallback) {
  if (const auto v = args.get("threads")) {
    char* end = nullptr;
    const long parsed = std::strtol(v->c_str(), &end, 10);
    if (end && *end == '\0' && parsed >= 0) return static_cast<int>(parsed);
    return fallback;
  }
  if (const char* env = std::getenv("BCN_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end && *end == '\0' && parsed >= 0) return static_cast<int>(parsed);
  }
  return fallback;
}

bool shard_count(const ArgParser& args, int* out) {
  std::optional<std::string> text = args.get("shards");
  if (!text) {
    if (const char* env = std::getenv("BCN_SHARDS")) {
      if (*env) text = env;
    }
  }
  if (!text) return true;
  const bool digits =
      !text->empty() && text->size() <= 6 &&
      std::all_of(text->begin(), text->end(),
                  [](char c) { return c >= '0' && c <= '9'; });
  if (!digits) {
    std::fprintf(stderr,
                 "--shards: bad shard count '%s' (expected a non-negative "
                 "integer; 0 = all hardware threads)\n",
                 text->c_str());
    return false;
  }
  *out = std::stoi(*text);
  return true;
}

std::vector<std::string> unknown_flags(const ArgParser& args,
                                       const std::vector<std::string>& known) {
  std::vector<std::string> unknown;
  for (const auto& name : args.flag_names()) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      unknown.push_back(name);
    }
  }
  return unknown;
}

bool reject_unknown_flags(const ArgParser& args,
                          const std::vector<std::string>& known) {
  const auto unknown = unknown_flags(args, known);
  for (const auto& name : unknown) {
    std::fprintf(stderr, "unknown flag --%s (try --help)\n", name.c_str());
  }
  return unknown.empty();
}

}  // namespace bcn
