#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "net/json.h"

#if defined(__linux__) && (defined(__x86_64__) || defined(__aarch64__))
#define WARPINDEX_PROFILER_SUPPORTED 1
#include <cxxabi.h>
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>
#else
#define WARPINDEX_PROFILER_SUPPORTED 0
#endif

namespace warpindex {
namespace {

// ---- Async-signal-safe sampling machinery (all file-scope: the signal
// handler cannot carry a `this`).

struct Sample {
  uint32_t depth = 0;
  char tag[CpuProfiler::kMaxTagLength + 1] = {0};
  uintptr_t pcs[CpuProfiler::kMaxDepth] = {0};
};

struct SampleBuffer {
  size_t capacity = 0;
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> dropped{0};
  Sample* samples = nullptr;
};

// Published buffer + gate. The handler loads the gate with acquire and
// bails when sampling is off; Stop() clears the gate, then spins until
// g_writers drains, which establishes happens-before between the last
// handler store and the aggregation reads.
std::atomic<bool> g_enabled{false};
std::atomic<SampleBuffer*> g_buffer{nullptr};
std::atomic<int> g_writers{0};

// Per-thread profiling identity: the tag (first folded frame) and the
// stack bounds that make the frame-pointer walk memory-safe. A thread
// that never called SetThreadTag gets PC-only samples tagged "thread".
struct ThreadProfileInfo {
  char tag[CpuProfiler::kMaxTagLength + 1] = {0};
  uintptr_t stack_lo = 0;
  uintptr_t stack_hi = 0;
};
thread_local ThreadProfileInfo tls_profile_info;

#if WARPINDEX_PROFILER_SUPPORTED

timer_t g_timer;
struct sigaction g_old_action;

// Extracts the interrupted PC / frame pointer / stack pointer from the
// signal ucontext (the registers of the code the signal preempted —
// NOT the handler's own frame, which would start the walk inside the
// signal trampoline).
void InterruptedRegisters(void* ucontext, uintptr_t* pc, uintptr_t* fp,
                          uintptr_t* sp) {
  const ucontext_t* uc = static_cast<const ucontext_t*>(ucontext);
#if defined(__x86_64__)
  *pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  *fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  *sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  *pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
  *fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
  *sp = static_cast<uintptr_t>(uc->uc_mcontext.sp);
#endif
}

void ProfilerSignalHandler(int /*signo*/, siginfo_t* /*info*/,
                           void* ucontext) {
  // The handler must not touch errno-modifying or locking code paths;
  // everything below is register reads, bounds-checked loads from this
  // thread's own stack, and atomics on pre-allocated memory.
  const int saved_errno = errno;
  if (g_enabled.load(std::memory_order_acquire)) {
    g_writers.fetch_add(1, std::memory_order_acq_rel);
    // Re-check under the writer mark so Stop()'s drain loop is sound.
    SampleBuffer* buffer = g_buffer.load(std::memory_order_acquire);
    if (g_enabled.load(std::memory_order_acquire) && buffer != nullptr) {
      const size_t slot =
          buffer->next.fetch_add(1, std::memory_order_relaxed);
      if (slot >= buffer->capacity) {
        buffer->dropped.fetch_add(1, std::memory_order_relaxed);
      } else {
        Sample& sample = buffer->samples[slot];
        uintptr_t pc = 0;
        uintptr_t fp = 0;
        uintptr_t sp = 0;
        InterruptedRegisters(ucontext, &pc, &fp, &sp);
        sample.pcs[0] = pc;
        sample.depth = 1;
        // Frame-pointer walk, leaf to root. Every dereference is kept
        // inside [sp, stack_hi) — the thread's own mapped stack — and
        // the chain must be strictly ascending, so the walk terminates
        // and never faults even on a corrupt or FP-omitted frame.
        const ThreadProfileInfo& info = tls_profile_info;
        if (info.stack_hi != 0) {
          uintptr_t frame = fp;
          while (sample.depth < CpuProfiler::kMaxDepth) {
            if (frame < sp || frame + 2 * sizeof(uintptr_t) > info.stack_hi ||
                (frame & (sizeof(uintptr_t) - 1)) != 0) {
              break;
            }
            const uintptr_t next_frame =
                *reinterpret_cast<const uintptr_t*>(frame);
            const uintptr_t return_pc =
                *reinterpret_cast<const uintptr_t*>(frame +
                                                    sizeof(uintptr_t));
            if (return_pc < 4096) {
              break;
            }
            sample.pcs[sample.depth++] = return_pc;
            if (next_frame <= frame) {
              break;
            }
            frame = next_frame;
          }
        }
        // Manual byte copy: memcpy may be intercepted by sanitizers.
        size_t n = 0;
        while (n < CpuProfiler::kMaxTagLength && info.tag[n] != '\0') {
          sample.tag[n] = info.tag[n];
          ++n;
        }
        sample.tag[n] = '\0';
      }
    }
    g_writers.fetch_sub(1, std::memory_order_release);
  }
  errno = saved_errno;
}

// Captures the calling thread's stack bounds once (pthread_getattr_np
// allocates, so this must run outside any signal context).
void RegisterCurrentThreadStack() {
  if (tls_profile_info.stack_hi != 0) {
    return;
  }
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) {
    return;
  }
  void* stack_addr = nullptr;
  size_t stack_size = 0;
  if (pthread_attr_getstack(&attr, &stack_addr, &stack_size) == 0 &&
      stack_addr != nullptr && stack_size != 0) {
    tls_profile_info.stack_lo = reinterpret_cast<uintptr_t>(stack_addr);
    tls_profile_info.stack_hi =
        tls_profile_info.stack_lo + static_cast<uintptr_t>(stack_size);
  }
  pthread_attr_destroy(&attr);
}

// Best-effort symbol name for one sampled PC (called at aggregation
// time only). Return addresses point one past the call, so callers pass
// pc-1 for non-leaf frames to land inside the calling function.
std::string Symbolize(uintptr_t pc) {
  Dl_info info;
  if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
      info.dli_sname != nullptr) {
    int demangle_status = 0;
    char* demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr,
                                          &demangle_status);
    if (demangle_status == 0 && demangled != nullptr) {
      std::string name(demangled);
      free(demangled);
      return name;
    }
    if (demangled != nullptr) {
      free(demangled);
    }
    return info.dli_sname;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%zx", static_cast<size_t>(pc));
  return hex;
}

#endif  // WARPINDEX_PROFILER_SUPPORTED

double WallNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Folded frames never contain ';' or whitespace surprises: collapse the
// separator and newlines out of symbol names.
std::string SanitizeFrame(std::string name) {
  for (char& c : name) {
    if (c == ';' || c == '\n' || c == '\r') {
      c = ':';
    }
  }
  return name;
}

}  // namespace

std::string Profile::FoldedText() const {
  std::string out;
  for (const auto& [stack, count] : folded) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

std::string Profile::SpeedscopeJson() const {
  // Frame table: unique frame names in first-seen order; each sample is
  // its stack's frame indices, weighted by the stack's count.
  std::map<std::string, size_t> frame_index;
  JsonValue frame_list = JsonValue::Array();
  JsonValue sample_list = JsonValue::Array();
  JsonValue weights = JsonValue::Array();
  uint64_t total_weight = 0;
  for (const auto& [stack, count] : folded) {
    JsonValue indices = JsonValue::Array();
    size_t begin = 0;
    while (begin <= stack.size()) {
      const size_t semi = stack.find(';', begin);
      const std::string frame =
          stack.substr(begin, semi == std::string::npos ? std::string::npos
                                                        : semi - begin);
      auto [it, inserted] = frame_index.emplace(frame, frame_list.size());
      if (inserted) {
        JsonValue entry = JsonValue::Object();
        entry.Set("name", JsonValue::Str(frame));
        frame_list.Add(std::move(entry));
      }
      indices.Add(JsonValue::Uint(it->second));
      if (semi == std::string::npos) {
        break;
      }
      begin = semi + 1;
    }
    sample_list.Add(std::move(indices));
    weights.Add(JsonValue::Uint(count));
    total_weight += count;
  }
  JsonValue shared = JsonValue::Object();
  shared.Set("frames", std::move(frame_list));
  JsonValue profile = JsonValue::Object();
  profile.Set("type", JsonValue::Str("sampled"));
  profile.Set("name", JsonValue::Str("warpindex cpu profile (" +
                                     std::to_string(hz) + " Hz, " +
                                     std::to_string(samples) + " samples)"));
  profile.Set("unit", JsonValue::Str("none"));
  profile.Set("startValue", JsonValue::Int(0));
  profile.Set("endValue", JsonValue::Uint(total_weight));
  profile.Set("samples", std::move(sample_list));
  profile.Set("weights", std::move(weights));
  JsonValue profiles = JsonValue::Array();
  profiles.Add(std::move(profile));
  JsonValue doc = JsonValue::Object();
  doc.Set("$schema",
          JsonValue::Str("https://www.speedscope.app/file-format-schema.json"));
  doc.Set("shared", std::move(shared));
  doc.Set("profiles", std::move(profiles));
  doc.Set("name", JsonValue::Str("warpindex"));
  doc.Set("exporter",
          JsonValue::Str("warpindex " + std::to_string(hz) + "hz"));
  return doc.Render();
}

CpuProfiler& CpuProfiler::Global() {
  static CpuProfiler* profiler = new CpuProfiler();
  return *profiler;
}

void CpuProfiler::SetThreadTag(std::string_view tag) {
  const size_t n = std::min(tag.size(), kMaxTagLength);
  std::memcpy(tls_profile_info.tag, tag.data(), n);
  tls_profile_info.tag[n] = '\0';
#if WARPINDEX_PROFILER_SUPPORTED
  RegisterCurrentThreadStack();
#endif
}

bool CpuProfiler::running() const {
  return g_enabled.load(std::memory_order_acquire);
}

Status CpuProfiler::Start(const ProfileOptions& options) {
#if WARPINDEX_PROFILER_SUPPORTED
  if (options.hz < 1 || options.hz > 1000) {
    return Status::InvalidArgument("profiler hz must be in [1, 1000]");
  }
  if (options.max_samples == 0) {
    return Status::InvalidArgument("profiler max_samples must be > 0");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (g_enabled.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("a CPU profile is already running");
  }

  // All allocation happens here, before the first signal can fire.
  SampleBuffer* buffer = new SampleBuffer();
  buffer->capacity = options.max_samples;
  buffer->samples = new Sample[options.max_samples];
  g_buffer.store(buffer, std::memory_order_release);

  // The thread driving the profile is sampleable too.
  RegisterCurrentThreadStack();

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = &ProfilerSignalHandler;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, &g_old_action) != 0) {
    delete[] buffer->samples;
    delete buffer;
    g_buffer.store(nullptr, std::memory_order_release);
    return Status::Internal("sigaction(SIGPROF) failed");
  }

  struct sigevent event;
  std::memset(&event, 0, sizeof(event));
  event.sigev_notify = SIGEV_SIGNAL;
  event.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &event, &g_timer) != 0) {
    sigaction(SIGPROF, &g_old_action, nullptr);
    delete[] buffer->samples;
    delete buffer;
    g_buffer.store(nullptr, std::memory_order_release);
    return Status::Internal("timer_create(CLOCK_PROCESS_CPUTIME_ID) failed");
  }

  hz_ = options.hz;
  started_wall_ = WallNowSeconds();
  g_enabled.store(true, std::memory_order_release);

  struct itimerspec spec;
  std::memset(&spec, 0, sizeof(spec));
  const long interval_ns = static_cast<long>(1e9 / options.hz);
  spec.it_interval.tv_sec = interval_ns / 1000000000L;
  spec.it_interval.tv_nsec = interval_ns % 1000000000L;
  spec.it_value = spec.it_interval;
  if (timer_settime(g_timer, 0, &spec, nullptr) != 0) {
    g_enabled.store(false, std::memory_order_release);
    timer_delete(g_timer);
    sigaction(SIGPROF, &g_old_action, nullptr);
    delete[] buffer->samples;
    delete buffer;
    g_buffer.store(nullptr, std::memory_order_release);
    return Status::Internal("timer_settime failed");
  }
  return Status::Ok();
#else
  (void)options;
  return Status::FailedPrecondition(
      "the sampling CPU profiler requires Linux on x86-64 or aarch64");
#endif
}

Status CpuProfiler::Stop(Profile* out) {
#if WARPINDEX_PROFILER_SUPPORTED
  std::lock_guard<std::mutex> lock(mu_);
  if (!g_enabled.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("no CPU profile is running");
  }
  const double duration_s = WallNowSeconds() - started_wall_;

  // Disarm: gate off first (new signals become no-ops), then tear down
  // the timer, then drain in-flight handler invocations. After the
  // drain every claimed slot below `next` is fully written.
  g_enabled.store(false, std::memory_order_release);
  timer_delete(g_timer);
  sigaction(SIGPROF, &g_old_action, nullptr);
  while (g_writers.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  SampleBuffer* buffer = g_buffer.exchange(nullptr,
                                           std::memory_order_acq_rel);

  *out = Profile();
  out->hz = hz_;
  out->duration_s = duration_s;
  const size_t captured =
      std::min(buffer->next.load(std::memory_order_acquire),
               buffer->capacity);
  out->samples = static_cast<uint64_t>(captured);
  out->dropped = buffer->dropped.load(std::memory_order_acquire);

  // Symbolize each unique PC once (leaf PCs as-is; return addresses
  // shifted back one byte to land inside the caller).
  std::map<uintptr_t, std::string> names;
  std::map<std::string, uint64_t> counts;
  std::string stack;
  for (size_t i = 0; i < captured; ++i) {
    const Sample& sample = buffer->samples[i];
    stack.clear();
    stack += sample.tag[0] != '\0' ? sample.tag : "thread";
    // pcs are leaf-first; folded stacks read root-first.
    for (size_t d = sample.depth; d-- > 0;) {
      const uintptr_t raw = sample.pcs[d];
      const uintptr_t lookup = d == 0 ? raw : raw - 1;
      auto it = names.find(lookup);
      if (it == names.end()) {
        it = names.emplace(lookup, SanitizeFrame(Symbolize(lookup))).first;
      }
      stack += ';';
      stack += it->second;
    }
    counts[stack] += 1;
  }
  out->folded.assign(counts.begin(), counts.end());

  delete[] buffer->samples;
  delete buffer;
  return Status::Ok();
#else
  (void)out;
  return Status::FailedPrecondition(
      "the sampling CPU profiler requires Linux on x86-64 or aarch64");
#endif
}

Status CpuProfiler::Collect(double seconds, int hz, Profile* out) {
  if (!(seconds > 0.0) || seconds > 120.0) {
    return Status::InvalidArgument("seconds must be in (0, 120]");
  }
  if (hz < 1 || hz > 1000) {
    return Status::InvalidArgument("hz must be in [1, 1000]");
  }
  ProfileOptions options;
  options.hz = hz;
  WARPINDEX_RETURN_IF_ERROR(Start(options));
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  return Stop(out);
}

}  // namespace warpindex
