/**
 * @file
 * Logging and error reporting for the simulator.
 *
 * Follows the gem5 convention: panic() flags simulator bugs (invariant
 * violations) and aborts; fatal() flags user/configuration errors and
 * exits cleanly; warn() reports a condition without stopping.
 */

#ifndef M3VSIM_SIM_LOG_H_
#define M3VSIM_SIM_LOG_H_

#include <cstdarg>
#include <string>

namespace m3v::sim {

/**
 * Report a simulator bug (an invariant that should never fail regardless
 * of configuration) and abort. Never returns.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user/configuration error and exit(1).
 * Never returns.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious but survivable condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vprintf-style formatting into a std::string. */
std::string vstrprintf(const char *fmt, va_list ap);

} // namespace m3v::sim

#endif // M3VSIM_SIM_LOG_H_
