// mpx/base/cvar.hpp
//
// Environment lookups for the debug and test switches (lock-rank
// validation, log level, pool passthrough, schedule verification, model
// checker limits). Runtime tuning lives in WorldConfig fields and named
// constants instead; docs/tuning.md lists all three.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace mpx::base {

/// Read environment variable `name`; return `def` when unset or malformed.
std::int64_t cvar_int(const char* name, std::int64_t def);
bool cvar_bool(const char* name, bool def);
std::string cvar_string(const char* name, const std::string& def);

}  // namespace mpx::base
