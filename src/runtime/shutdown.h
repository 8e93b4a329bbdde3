// Deterministic process-exit ordering for the observability plane.
//
// Before this existed, exit behaviour depended on static-destruction
// luck: the NDIRECT_TRACE atexit exporter could run while a
// serve::Server's executor lanes were still draining (recording trace
// events into the ring mid-export). This registry replaces that with
// one explicit LIFO hook chain behind a single std::atexit
// registration:
//
//   registration order                exit order (LIFO)
//   1. trace autostart (static init)  3. export the trace ring
//   2. live servers (runtime)         2. shutdown(drain) stragglers
//   3. admin plane (re-fronted on     1. close the HTTP transport
//      every server registration)
//
// so by the time the trace ring is exported every server lane has
// joined and nothing records concurrently. Hooks unregister themselves
// when their owner is destroyed normally (a Server that died before
// exit runs nothing).
//
// Hooks run exactly once, in LIFO registration order, on the first of:
// process exit (atexit) or an explicit run_exit_hooks() call (tests).
#pragma once

#include <cstdint>
#include <functional>

namespace ndirect {

/// Register `fn` to run at process exit (LIFO). `name` appears in
/// nothing but debuggers; keep it short. Returns a token for
/// unregister_exit_hook. Thread-safe.
std::uint64_t register_exit_hook(const char* name,
                                 std::function<void()> fn);

/// Remove a registered hook. Safe against concurrent hook execution:
/// if the chain is already running, this blocks until the chain is
/// done (so an owner that unregisters in its destructor never has its
/// hook touch freed state). Unknown/already-run tokens are a no-op.
void unregister_exit_hook(std::uint64_t token);

/// Run all registered hooks now, LIFO, each at most once (idempotent:
/// a later atexit pass re-runs nothing). Test hook; atexit calls this.
void run_exit_hooks();

/// Install SIGTERM/SIGINT handlers that run the exit-hook chain once
/// — close the admin transport, drain live servers, trace export —
/// and then exit(0). run_exit_hooks() is not async-signal-safe, so
/// the handler only writes one byte down a self-pipe; a watcher thread
/// (spawned here, not in the handler) does the real work. The
/// handlers install with SA_RESETHAND: a second signal while the drain
/// is still running kills the process with the default disposition —
/// the escape hatch against a hung drain.
///
/// Idempotent; returns true when this call installed the handlers.
/// Autostarts via NDIRECT_SIGNAL_SHUTDOWN=1 or as part of the
/// NDIRECT_ADMIN_PORT admin plane (serve/admin.cpp).
bool install_signal_shutdown();

}  // namespace ndirect
