// Error taxonomy for MiddleWhere.
//
// Per the project conventions (DESIGN.md §6) contract violations and
// unrecoverable failures throw; lookups that can legitimately fail return
// std::optional. These exception types let callers distinguish "you called
// the API wrong" from "the environment failed".
#pragma once

#include <stdexcept>
#include <string>

namespace mw::util {

/// Base class for every exception thrown by MiddleWhere itself.
class MwError : public std::runtime_error {
 public:
  explicit MwError(const std::string& what) : std::runtime_error(what) {}
};

/// The caller violated a precondition (bad argument, wrong state).
class ContractError : public MwError {
 public:
  explicit ContractError(const std::string& what) : MwError(what) {}
};

/// Malformed external input (unparseable GLOB, truncated wire message, ...).
class ParseError : public MwError {
 public:
  explicit ParseError(const std::string& what) : MwError(what) {}
};

/// A referenced entity does not exist where existence was required.
class NotFoundError : public MwError {
 public:
  explicit NotFoundError(const std::string& what) : MwError(what) {}
};

/// The MicroOrb transport failed (peer gone, socket error, ...).
class TransportError : public MwError {
 public:
  explicit TransportError(const std::string& what) : MwError(what) {}
};

/// A call's deadline expired before the peer answered. Distinct from the
/// base TransportError so retry/backoff policies can tell "slow" (the peer
/// may still be working; back off) from "down" (the connection is gone;
/// reconnect or fail over).
class TimeoutError : public TransportError {
 public:
  explicit TimeoutError(const std::string& what) : TransportError(what) {}
};

/// Throws ContractError if `cond` is false. Use for cheap precondition
/// checks on public API boundaries.
inline void require(bool cond, const std::string& what) {
  if (!cond) throw ContractError(what);
}
/// The same for a literal message: no std::string is built unless the check
/// fails (hot paths such as SensorReading::rect() check on every call).
inline void require(bool cond, const char* what) {
  if (!cond) throw ContractError(what);
}

}  // namespace mw::util
