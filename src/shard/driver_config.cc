#include "src/shard/driver_config.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <string>

namespace graphbolt {
namespace {

// Numeric parsers that reject trailing junk, so "12x" or "" fail loudly
// instead of truncating.
bool ParseUint(const std::string& text, uint64_t* value) {
  if (text.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0' || text[0] == '-') {
    return false;
  }
  *value = parsed;
  return true;
}

bool ParseNonNegativeDouble(const std::string& text, double* value) {
  if (text.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0' || parsed < 0.0) {
    return false;
  }
  *value = parsed;
  return true;
}

const char* Getenv(const char* name) { return std::getenv(name); }

// One env override: returns false (with *error set) only when the variable
// is present and malformed.
template <typename Apply>
bool EnvOverride(const char* name, std::string* error, Apply&& apply) {
  const char* raw = Getenv(name);
  if (raw == nullptr) {
    return true;
  }
  if (!apply(std::string(raw))) {
    *error = std::string(name) + "=\"" + raw + "\" is not a valid value; " +
             *error;
    return false;
  }
  return true;
}

// Parses a tenant-quota list, "tenant=rate[:burst[:total]]" entries joined
// by commas, into *quotas. On a bad entry returns false with *error naming
// it; the caller prefixes the flag or variable the list came from.
bool ParseTenantQuotas(const std::string& list, std::map<std::string, TenantQuota>* quotas,
                       std::string* error) {
  size_t begin = 0;
  while (begin <= list.size()) {
    const size_t end = std::min(list.find(',', begin), list.size());
    const std::string entry = list.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) {
      continue;
    }
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      *error = "entry \"" + entry + "\" is malformed; expected tenant=rate[:burst[:total]]";
      return false;
    }
    TenantQuota quota;
    if (!DriverConfig::ParseQuota(entry.substr(eq + 1), &quota, error)) {
      *error = "entry \"" + entry + "\": " + *error;
      return false;
    }
    (*quotas)[entry.substr(0, eq)] = quota;
  }
  return true;
}

}  // namespace

bool DriverConfig::ParseOverflow(const std::string& name, OverflowPolicy* policy) {
  if (name == "block") {
    *policy = OverflowPolicy::kBlock;
  } else if (name == "drop") {
    *policy = OverflowPolicy::kDropNewest;
  } else if (name == "shed") {
    *policy = OverflowPolicy::kShedToWal;
  } else if (name == "shed-oldest") {
    *policy = OverflowPolicy::kShedOldest;
  } else if (name == "degrade") {
    *policy = OverflowPolicy::kDegrade;
  } else {
    return false;
  }
  return true;
}

const char* DriverConfig::OverflowName(OverflowPolicy policy) {
  switch (policy) {
    case OverflowPolicy::kBlock:
      return "block";
    case OverflowPolicy::kDropNewest:
      return "drop";
    case OverflowPolicy::kShedToWal:
      return "shed";
    case OverflowPolicy::kShedOldest:
      return "shed-oldest";
    case OverflowPolicy::kDegrade:
      return "degrade";
  }
  return "unknown";
}

bool DriverConfig::ParseAsyncMode(const std::string& name, AsyncModePolicy* policy) {
  if (name == "off") {
    *policy = AsyncModePolicy::kOff;
  } else if (name == "degrade-only") {
    *policy = AsyncModePolicy::kDegradeOnly;
  } else {
    return false;
  }
  return true;
}

const char* DriverConfig::AsyncModeName(AsyncModePolicy policy) {
  switch (policy) {
    case AsyncModePolicy::kOff:
      return "off";
    case AsyncModePolicy::kDegradeOnly:
      return "degrade-only";
  }
  return "unknown";
}

bool DriverConfig::ParseQuota(const std::string& spec, TenantQuota* quota,
                              std::string* error) {
  TenantQuota parsed;
  std::string fields[3];
  size_t field = 0;
  for (const char c : spec) {
    if (c == ':') {
      if (++field >= 3) {
        *error = "quota spec \"" + spec +
                 "\" has too many fields; expected rate[:burst[:total]]";
        return false;
      }
    } else {
      fields[field].push_back(c);
    }
  }
  if (!ParseNonNegativeDouble(fields[0], &parsed.mutations_per_second)) {
    *error = "quota spec \"" + spec +
             "\": rate must be a non-negative number (mutations/second; 0 = unlimited)";
    return false;
  }
  if (field >= 1 && !ParseNonNegativeDouble(fields[1], &parsed.burst_mutations)) {
    *error = "quota spec \"" + spec +
             "\": burst must be a non-negative number (mutations; 0 = default)";
    return false;
  }
  uint64_t total = 0;
  if (field >= 2) {
    if (!ParseUint(fields[2], &total)) {
      *error = "quota spec \"" + spec +
               "\": total must be a non-negative integer (mutations; 0 = unlimited)";
      return false;
    }
    parsed.max_total_mutations = total;
  }
  *quota = parsed;
  return true;
}

void DriverConfig::RegisterFlags(ArgParser& args) {
  const DriverConfig defaults;
  args.AddInt("shards", static_cast<int64_t>(defaults.shards),
              "ingestion lanes (1 = the single-lane pipeline)");
  args.AddInt("batch-size", static_cast<int64_t>(defaults.batch_size),
              "gutter flush threshold: mutations per batch");
  args.AddDouble("flush-ms", defaults.flush_interval_seconds * 1e3,
                 "flush a non-full gutter once its oldest mutation is this stale");
  args.AddInt("max-pending-batches", static_cast<int64_t>(defaults.max_pending_batches),
              "flushed-batch queue capacity (the backpressure bound)");
  args.AddString("overflow", OverflowName(defaults.overflow),
                 "backpressure policy: block | drop | shed | shed-oldest | degrade");
  args.AddBool("coalesce", defaults.coalesce,
               "keep only the last mutation per (src,dst) within a flush");
  args.AddBool("bg-compaction", defaults.background_compaction,
               "reclaim arena slack in background maintenance steps");
  args.AddBool("fast-path", defaults.fast_path,
               "splice safe single updates in place, bypassing gutter batching");
  args.AddString("async-mode", AsyncModeName(defaults.async_mode),
                 "async delta-accumulative tier: off | degrade-only "
                 "(needs --overflow degrade and a decomposable engine)");
  args.AddString("checkpoint-dir", "", "enable WAL + checkpoints in this directory");
  args.AddInt("checkpoint-every", static_cast<int64_t>(defaults.checkpoint_every),
              "checkpoint cadence in batches (0 = WAL only)");
  args.AddDouble("scrub-interval-s", defaults.scrub_interval_seconds,
                 "verify durability artifacts every this many idle seconds, "
                 "quarantining corrupt checkpoints and healing torn WALs (0 = off)");
  args.AddString("quarantine-dir", "",
                 "arm admission control; rejects park in this dead-letter WAL directory");
  args.AddInt("max-batch-edges", 0,
              "admission ceiling on mutations per ingested batch (0 = library default)");
  args.AddInt("watchdog-ms", 0,
              "stall watchdog timeout in ms (0 = off; auto-recovery needs --checkpoint-dir)");
  args.AddString("default-quota", "",
                 "per-tenant quota rate[:burst[:total]] for tenants without an entry");
  args.AddString("tenant-quotas", "",
                 "comma-separated tenant=rate[:burst[:total]] quota entries");
}

bool DriverConfig::FromCli(const ArgParser& args, std::string* error) {
  const int64_t shards_flag = args.GetInt("shards");
  if (shards_flag < 1) {
    *error = "--shards must be >= 1 (got " + std::to_string(shards_flag) + ")";
    return false;
  }
  shards = static_cast<size_t>(shards_flag);
  const int64_t batch_flag = args.GetInt("batch-size");
  if (batch_flag < 1) {
    *error = "--batch-size must be >= 1 (got " + std::to_string(batch_flag) + ")";
    return false;
  }
  batch_size = static_cast<size_t>(batch_flag);
  const double flush_ms = args.GetDouble("flush-ms");
  if (flush_ms <= 0.0) {
    *error = "--flush-ms must be > 0 (got " + std::to_string(flush_ms) + ")";
    return false;
  }
  flush_interval_seconds = flush_ms * 1e-3;
  const int64_t pending = args.GetInt("max-pending-batches");
  if (pending < 1) {
    *error = "--max-pending-batches must be >= 1 (got " + std::to_string(pending) + ")";
    return false;
  }
  max_pending_batches = static_cast<size_t>(pending);
  if (!ParseOverflow(args.GetString("overflow"), &overflow)) {
    *error = "--overflow \"" + args.GetString("overflow") +
             "\" is unknown; use block | drop | shed | shed-oldest | degrade";
    return false;
  }
  coalesce = args.GetBool("coalesce");
  background_compaction = args.GetBool("bg-compaction");
  fast_path = args.GetBool("fast-path");
  if (!ParseAsyncMode(args.GetString("async-mode"), &async_mode)) {
    *error = "--async-mode \"" + args.GetString("async-mode") +
             "\" is unknown; use off | degrade-only";
    return false;
  }
  checkpoint_dir = args.GetString("checkpoint-dir");
  const int64_t cadence = args.GetInt("checkpoint-every");
  if (cadence < 0) {
    *error = "--checkpoint-every must be >= 0 (got " + std::to_string(cadence) + ")";
    return false;
  }
  checkpoint_every = static_cast<uint64_t>(cadence);
  const double scrub_s = args.GetDouble("scrub-interval-s");
  if (scrub_s < 0.0) {
    *error = "--scrub-interval-s must be >= 0 (got " + std::to_string(scrub_s) + ")";
    return false;
  }
  scrub_interval_seconds = scrub_s;
  quarantine_dir = args.GetString("quarantine-dir");
  const int64_t max_edges = args.GetInt("max-batch-edges");
  if (max_edges < 0) {
    *error = "--max-batch-edges must be >= 0 (got " + std::to_string(max_edges) + ")";
    return false;
  }
  if (max_edges > 0) {
    admission.max_batch_mutations = static_cast<size_t>(max_edges);
  }
  const int64_t watchdog_ms = args.GetInt("watchdog-ms");
  if (watchdog_ms < 0) {
    *error = "--watchdog-ms must be >= 0 (got " + std::to_string(watchdog_ms) + ")";
    return false;
  }
  watchdog_stall_seconds = static_cast<double>(watchdog_ms) * 1e-3;
  if (!args.GetString("default-quota").empty() &&
      !ParseQuota(args.GetString("default-quota"), &default_quota, error)) {
    *error = "--default-quota: " + *error;
    return false;
  }
  if (!ParseTenantQuotas(args.GetString("tenant-quotas"), &tenant_quotas, error)) {
    *error = "--tenant-quotas " + *error;
    return false;
  }
  const std::string valid = Validate();
  if (!valid.empty()) {
    *error = valid;
    return false;
  }
  return true;
}

bool DriverConfig::FromEnv(std::string* error) {
  *error = "";
  if (!EnvOverride("GRAPHBOLT_SHARDS", error, [&](const std::string& v) {
        uint64_t parsed = 0;
        *error = "expected a positive integer shard count";
        if (!ParseUint(v, &parsed) || parsed == 0) {
          return false;
        }
        shards = static_cast<size_t>(parsed);
        return true;
      })) {
    return false;
  }
  if (!EnvOverride("GRAPHBOLT_BATCH_SIZE", error, [&](const std::string& v) {
        uint64_t parsed = 0;
        *error = "expected a positive integer batch size";
        if (!ParseUint(v, &parsed) || parsed == 0) {
          return false;
        }
        batch_size = static_cast<size_t>(parsed);
        return true;
      })) {
    return false;
  }
  if (!EnvOverride("GRAPHBOLT_FLUSH_MS", error, [&](const std::string& v) {
        double parsed = 0.0;
        *error = "expected a positive flush interval in milliseconds";
        if (!ParseNonNegativeDouble(v, &parsed) || parsed <= 0.0) {
          return false;
        }
        flush_interval_seconds = parsed * 1e-3;
        return true;
      })) {
    return false;
  }
  if (!EnvOverride("GRAPHBOLT_MAX_PENDING_BATCHES", error, [&](const std::string& v) {
        uint64_t parsed = 0;
        *error = "expected a positive integer queue capacity";
        if (!ParseUint(v, &parsed) || parsed == 0) {
          return false;
        }
        max_pending_batches = static_cast<size_t>(parsed);
        return true;
      })) {
    return false;
  }
  if (!EnvOverride("GRAPHBOLT_OVERFLOW", error, [&](const std::string& v) {
        *error = "expected block | drop | shed | shed-oldest | degrade";
        return ParseOverflow(v, &overflow);
      })) {
    return false;
  }
  if (!EnvOverride("GRAPHBOLT_BG_COMPACTION", error, [&](const std::string& v) {
        *error = "expected 0 or 1";
        if (v != "0" && v != "1") {
          return false;
        }
        background_compaction = v == "1";
        return true;
      })) {
    return false;
  }
  if (!EnvOverride("GRAPHBOLT_FAST_PATH", error, [&](const std::string& v) {
        *error = "expected 0 or 1";
        if (v != "0" && v != "1") {
          return false;
        }
        fast_path = v == "1";
        return true;
      })) {
    return false;
  }
  if (!EnvOverride("GRAPHBOLT_ASYNC_MODE", error, [&](const std::string& v) {
        *error = "expected off | degrade-only";
        return ParseAsyncMode(v, &async_mode);
      })) {
    return false;
  }
  if (!EnvOverride("GRAPHBOLT_CHECKPOINT_DIR", error, [&](const std::string& v) {
        checkpoint_dir = v;
        return true;
      })) {
    return false;
  }
  if (!EnvOverride("GRAPHBOLT_CHECKPOINT_EVERY", error, [&](const std::string& v) {
        uint64_t parsed = 0;
        *error = "expected a non-negative integer cadence";
        if (!ParseUint(v, &parsed)) {
          return false;
        }
        checkpoint_every = parsed;
        return true;
      })) {
    return false;
  }
  if (!EnvOverride("GRAPHBOLT_SCRUB_INTERVAL_S", error, [&](const std::string& v) {
        double parsed = 0.0;
        *error = "expected a non-negative interval in seconds";
        if (!ParseNonNegativeDouble(v, &parsed)) {
          return false;
        }
        scrub_interval_seconds = parsed;
        return true;
      })) {
    return false;
  }
  if (!EnvOverride("GRAPHBOLT_QUARANTINE_DIR", error, [&](const std::string& v) {
        quarantine_dir = v;
        return true;
      })) {
    return false;
  }
  if (!EnvOverride("GRAPHBOLT_MAX_BATCH_EDGES", error, [&](const std::string& v) {
        uint64_t parsed = 0;
        *error = "expected a positive integer mutation ceiling";
        if (!ParseUint(v, &parsed) || parsed == 0) {
          return false;
        }
        admission.max_batch_mutations = static_cast<size_t>(parsed);
        return true;
      })) {
    return false;
  }
  if (!EnvOverride("GRAPHBOLT_WATCHDOG_MS", error, [&](const std::string& v) {
        double parsed = 0.0;
        *error = "expected a non-negative timeout in milliseconds";
        if (!ParseNonNegativeDouble(v, &parsed)) {
          return false;
        }
        watchdog_stall_seconds = parsed * 1e-3;
        return true;
      })) {
    return false;
  }
  if (!EnvOverride("GRAPHBOLT_DEFAULT_QUOTA", error, [&](const std::string& v) {
        std::string quota_error;
        if (!ParseQuota(v, &default_quota, &quota_error)) {
          *error = quota_error;
          return false;
        }
        return true;
      })) {
    return false;
  }
  if (!EnvOverride("GRAPHBOLT_TENANT_QUOTAS", error, [&](const std::string& v) {
        return ParseTenantQuotas(v, &tenant_quotas, error);
      })) {
    return false;
  }
  const std::string valid = Validate();
  if (!valid.empty()) {
    *error = valid;
    return false;
  }
  *error = "";
  return true;
}

std::string DriverConfig::Validate(bool durable) const {
  if (shards < 1 || shards > 1024) {
    return "shards must be in [1, 1024] (got " + std::to_string(shards) +
           "); lanes beyond the core count only add context-switch overhead";
  }
  if (batch_size < 1) {
    return "batch_size must be >= 1";
  }
  if (flush_interval_seconds <= 0.0) {
    return "flush_interval_seconds must be > 0 (a gutter must eventually flush)";
  }
  if (max_pending_batches < 1) {
    return "max_pending_batches must be >= 1 (the queue needs one slot)";
  }
  if (overflow == OverflowPolicy::kShedToWal && !durable) {
    return "overflow policy \"shed\" parks batches in the durable shed log; "
           "set checkpoint_dir (--checkpoint-dir) and hand the driver its Checkpointer, "
           "or pick block | drop";
  }
  if (scrub_interval_seconds < 0.0) {
    return "scrub_interval_seconds must be >= 0 (0 disables scrubbing)";
  }
  if (scrub_interval_seconds > 0.0 && !durable) {
    return "scrubbing verifies durability artifacts; set checkpoint_dir "
           "(--checkpoint-dir) and hand the driver its Checkpointer, or leave "
           "scrub_interval_seconds at 0";
  }
  if (watchdog_stall_seconds < 0.0) {
    return "watchdog_stall_seconds must be >= 0 (0 disables the watchdog)";
  }
  auto check_quota = [](const std::string& who, const TenantQuota& q) -> std::string {
    if (q.mutations_per_second < 0.0 || q.burst_mutations < 0.0) {
      return who + ": quota rate and burst must be >= 0 (0 = unlimited/default)";
    }
    return "";
  };
  std::string quota_error = check_quota("default_quota", default_quota);
  if (!quota_error.empty()) {
    return quota_error;
  }
  for (const auto& [tenant, quota] : tenant_quotas) {
    quota_error = check_quota("tenant_quotas[" + tenant + "]", quota);
    if (!quota_error.empty()) {
      return quota_error;
    }
  }
  return "";
}

}  // namespace graphbolt
