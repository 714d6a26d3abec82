// Minimal leveled logger. Silent by default so tests and the DES benches
// stay fast; raise the level for debugging.
#pragma once

#include <cstdio>
#include <string>

namespace pravega {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

LogLevel logLevel();
void setLogLevel(LogLevel level);

void logMessage(LogLevel level, const char* component, const std::string& msg);

namespace detail {
// nonnull: without it, GCC's UBSan instrumentation of the first vsnprintf
// leaves a null-format path that -Wformat-truncation reports at the second.
std::string formatLog(const char* fmt, ...)
    __attribute__((format(printf, 1, 2), nonnull(1)));
}  // namespace detail

#define PLOG(level, component, ...)                                             \
    do {                                                                         \
        if (static_cast<int>(level) >= static_cast<int>(::pravega::logLevel()))  \
            ::pravega::logMessage(level, component,                              \
                                  ::pravega::detail::formatLog(__VA_ARGS__));    \
    } while (0)

#define PLOG_DEBUG(component, ...) PLOG(::pravega::LogLevel::Debug, component, __VA_ARGS__)
#define PLOG_INFO(component, ...) PLOG(::pravega::LogLevel::Info, component, __VA_ARGS__)
#define PLOG_WARN(component, ...) PLOG(::pravega::LogLevel::Warn, component, __VA_ARGS__)
#define PLOG_ERROR(component, ...) PLOG(::pravega::LogLevel::Error, component, __VA_ARGS__)

}  // namespace pravega
