#include "common/cli.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/assert.hpp"

namespace meteo {

void CliParser::add_flag(std::string name, std::string default_value,
                         std::string help) {
  Flag flag;
  flag.value = default_value;
  flag.default_value = std::move(default_value);
  flag.help = std::move(help);
  flags_.emplace(std::move(name), std::move(flag));
}

void CliParser::add_bool(std::string name, bool default_value,
                         std::string help) {
  Flag flag;
  flag.value.assign(1, default_value ? '1' : '0');
  flag.default_value = flag.value;
  flag.help = std::move(help);
  flag.is_bool = true;
  flags_.emplace(std::move(name), std::move(flag));
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0]);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    bool negated = false;
    if (!flags_.contains(name) && name.rfind("no-", 0) == 0) {
      const std::string positive = name.substr(3);
      if (flags_.contains(positive) && flags_.at(positive).is_bool) {
        name = positive;
        negated = true;
      }
    }
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      print_usage(argv[0]);
      return false;
    }
    Flag& flag = it->second;
    if (flag.is_bool) {
      const bool off = negated || value.value_or("1") == "0";
      flag.value.assign(1, off ? '0' : '1');
      continue;
    }
    if (!value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag --%s requires a value\n", name.c_str());
        return false;
      }
      value = argv[++i];
    }
    flag.value = *value;
  }
  return true;
}

std::string CliParser::get(const std::string& name) const {
  const auto it = flags_.find(name);
  METEO_EXPECTS(it != flags_.end());
  return it->second.value;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  return std::strtoll(get(name).c_str(), nullptr, 10);
}

double CliParser::get_double(const std::string& name) const {
  return std::strtod(get(name).c_str(), nullptr);
}

bool CliParser::get_bool(const std::string& name) const {
  return get(name) == "1";
}

void CliParser::print_usage(const std::string& program) const {
  std::fprintf(stderr, "usage: %s [flags]\n", program.c_str());
  for (const auto& [name, flag] : flags_) {
    std::fprintf(stderr, "  --%-24s %s (default: %s)\n", name.c_str(),
                 flag.help.c_str(), flag.default_value.c_str());
  }
}

}  // namespace meteo
