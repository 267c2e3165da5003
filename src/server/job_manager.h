#ifndef KGFD_SERVER_JOB_MANAGER_H_
#define KGFD_SERVER_JOB_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/discovery.h"
#include "core/discovery_cache.h"
#include "kg/dataset.h"
#include "kge/model.h"
#include "server/job_journal.h"
#include "util/cancellation.h"
#include "util/retry.h"
#include "util/status.h"

namespace kgfd {

class MetricsRegistry;
class ThreadPool;

/// Metric names recorded when JobManager::Options::metrics is set.
inline constexpr char kServerJobsSubmittedCounter[] = "server.jobs.submitted";
inline constexpr char kServerJobsCompletedCounter[] = "server.jobs.completed";
inline constexpr char kServerJobsRejectedCounter[] = "server.jobs.rejected";
inline constexpr char kServerModelCacheHitsCounter[] =
    "server.model_cache.hits";
inline constexpr char kServerModelCacheMissesCounter[] =
    "server.model_cache.misses";
/// Durability & recovery series (DESIGN.md §10).
inline constexpr char kServerJournalRecordsCounter[] =
    "server.journal.records";
inline constexpr char kServerJournalErrorsCounter[] = "server.journal.errors";
inline constexpr char kServerJournalRotationsCounter[] =
    "server.journal.rotations";
inline constexpr char kServerJournalTruncatedBytesCounter[] =
    "server.journal.truncated_bytes";
inline constexpr char kServerJournalQuarantinedCounter[] =
    "server.journal.quarantined";
inline constexpr char kServerJobsRecoveredCounter[] = "server.jobs.recovered";
inline constexpr char kServerJobsRetriedCounter[] = "server.jobs.retried";
inline constexpr char kServerJobsPoisonedCounter[] = "server.jobs.poisoned";
inline constexpr char kServerWatchdogStallsCounter[] =
    "server.watchdog.stalls";

/// Lifecycle of one submitted job.
enum class JobState {
  kQueued,
  kRunning,
  kDone,       ///< ran to completion
  kCancelled,  ///< stopped by DELETE /jobs/<id> or server drain
  kDeadline,   ///< stopped by its deadline_s budget
  kFailed,     ///< terminated with an error (see JobStatus::error)
  /// Quarantined: the job stalled or failed transiently on every allowed
  /// attempt (watchdog + RetryPolicy), or crash-looped the server across
  /// restarts. It will not be retried again; the last error is preserved.
  kFailedPoisoned,
};

const char* JobStateName(JobState state);

/// Creates the manifest work directory if missing (one level; parent must
/// exist). The server binary calls this before constructing a JobManager so
/// an unusable --work_dir is a clean startup error.
Status EnsureJobWorkDir(const std::string& path);

/// A parsed job submission. The body of POST /jobs is the repo's flat
/// `key = value` config format (util/config_file.h). Two kinds:
///
///  * `job.kind = discover` (default) — run discovery against an existing
///    dataset directory and model checkpoint; this is the service's hot
///    path and what the cross-request caches accelerate. Keys:
///      data.dir                  = <dataset directory>      (required)
///      model.checkpoint          = <model checkpoint file>  (required)
///      discovery.strategy        = <any strategy name; default is
///                                  KGFD_DEFAULT_STRATEGY, else
///                                  ENTITY_FREQUENCY>
///      discovery.top_n           = 500
///      discovery.max_candidates  = 500
///      discovery.max_iterations  = 5
///      discovery.type_filter     = false
///      discovery.filtered_ranking= true
///      discovery.seed            = 123
///      discovery.adaptive_rounds      = 8    # strategy=ADAPTIVE rounds
///      discovery.adaptive_exploration = 0.5  # UCB1 exploration constant
///      deadline_s                = 0        # 0 = no deadline
///    Defaults deliberately match `kgfd_cli discover`, so the same inputs
///    produce byte-identical facts through either front end.
///
///  * `job.kind = run` — a full declarative pipeline (core/job.h JobSpec:
///    dataset/train/eval/discovery keys), executed via RunJob. `deadline_s`
///    is also accepted.
struct JobRequest {
  enum class Kind { kDiscover, kRun };
  Kind kind = Kind::kDiscover;
  // -- discover ------------------------------------------------------------
  std::string data_dir;
  std::string checkpoint;
  DiscoveryOptions discovery;
  // -- common --------------------------------------------------------------
  double deadline_s = 0.0;
  /// Original body; `run` jobs re-parse it into a JobSpec at execution.
  /// Also the payload of the journal's kSubmitted record, so a recovered
  /// job is re-parsed from the exact bytes the client submitted.
  std::string config_text;

  /// Parses and fully validates a submission body (unknown keys rejected).
  static Result<JobRequest> Parse(const std::string& config_text);
};

/// Point-in-time public view of a job.
struct JobStatus {
  std::string id;
  JobState state = JobState::kQueued;
  std::string error;
  size_t relations_total = 0;  ///< 0 until the job starts
  size_t relations_done = 0;
  size_t num_facts = 0;
  StoppedReason stopped_reason = StoppedReason::kNone;
  double runtime_seconds = 0.0;
  /// Execution attempts begun so far (0 while queued; carried across
  /// server restarts through the journal).
  uint32_t attempts = 0;
  /// True if this job was rebuilt from the journal after a restart.
  bool recovered = false;
};

/// Bounded FIFO job queue with a single runner thread — the serving-side
/// "discovery as a service" engine.
///
/// Jobs run one at a time (each job parallelizes internally across the
/// compute pool, so serial admission maximizes per-job throughput instead
/// of thrashing the pool); the bounded queue is the admission control: a
/// Submit beyond Options::max_queued fails with FailedPrecondition, which
/// the HTTP layer maps to 429.
///
/// Cross-request amortization:
///  * datasets + model checkpoints are cached by (data.dir, checkpoint)
///    path pair (server.model_cache.* counters), so repeat jobs skip disk;
///  * each distinct model/KG *fingerprint* (HashModelParameters + graph
///    shape, the same identity core/resume.h manifests pin) owns one
///    DiscoveryCache holding strategy weights and the MODEL_SCORE sketch,
///    so a second job over the same model skips those computations
///    (discovery.shared_weights.* / discovery.sketch.* counters).
///    Fingerprint keying means two checkpoint files with identical
///    parameters share a cache, and a retrained model can never be served
///    another model's sketch. Side scores are not shared: each job scores
///    its own keys in run-local caches, so memory stays bounded by the
///    running job.
///
/// Every discover job runs through DiscoverFactsResumable with a per-job
/// manifest under Options::work_dir: GET /jobs/<id> progress comes from the
/// same per-relation completion stream the manifest persists, and a drain
/// or cancellation mid-job leaves a valid manifest on disk (the PR4
/// invariant) that a resubmitted job resumes bit-identically.
///
/// Durability (DESIGN.md §10): every job transition is appended to a
/// JobJournal under work_dir before the server acknowledges it as durable.
/// On construction the journal is replayed: terminal jobs are restored
/// (facts from `<id>.facts.tsv`), interrupted jobs re-enter the queue in
/// their original submission order and resume through their manifests, and
/// jobs that crash-looped past the attempt budget are quarantined as
/// kFailedPoisoned instead of crashing the server again.
///
/// A watchdog thread (Options::stall_timeout_s) cancels the running job
/// when its per-phase heartbeats (attempt start, relation completion,
/// adaptive round completion) go silent; stalled or transiently-failed
/// jobs are re-executed under Options::retry and quarantined after the
/// attempt budget.
///
/// Shutdown() drains gracefully: no new admissions (503 at the HTTP
/// layer), queued jobs become kCancelled (or stay durable in the journal
/// for the next boot when Options::cancel_queued_on_drain is false), the
/// in-flight job is cancelled cooperatively and flushes its manifest
/// before the runner exits.
class JobManager {
 public:
  struct Options {
    /// Directory for per-job resume manifests, facts files, and the job
    /// journal (created if missing).
    std::string work_dir;
    /// Admission cap on not-yet-running jobs.
    size_t max_queued = 16;
    /// Compute pool threaded into discovery. Borrowed; may be null
    /// (serial).
    ThreadPool* pool = nullptr;
    /// Server-global registry: job counters here, and discovery/cache
    /// metrics of every job accumulate into it (how the integration tests
    /// observe cross-request cache hits via GET /metrics). Borrowed; may
    /// be null.
    MetricsRegistry* metrics = nullptr;
    /// Job re-execution budget. max_attempts is the total number of
    /// executions a job may start in-process (1 = never retry, the
    /// default here); only retryable codes (IoError unless overridden)
    /// and watchdog stalls consume extra attempts. Exhaustion lands the
    /// job in kFailedPoisoned.
    RetryPolicy retry{.max_attempts = 1};
    /// Cancel the running job once its heartbeats are older than this
    /// (seconds). 0 disables the watchdog.
    double stall_timeout_s = 0.0;
    /// Watchdog poll cadence; only meaningful with stall_timeout_s > 0.
    double watchdog_poll_s = 0.05;
    /// Journal tuning (rotation threshold, fsync-per-append).
    JobJournal::Options journal;
    /// Historical drain semantics: Shutdown() cancels still-queued jobs.
    /// Set false to leave them durable in the journal instead, so the
    /// next boot re-enqueues and runs them (kgfd_server
    /// --drain_keep_queued).
    bool cancel_queued_on_drain = true;
  };

  /// What construction-time journal replay did (kgfd_server logs this).
  struct RecoveryInfo {
    size_t replayed_records = 0;
    size_t jobs_restored = 0;   ///< terminal jobs rebuilt with their facts
    size_t jobs_recovered = 0;  ///< interrupted/queued jobs re-enqueued
    size_t jobs_poisoned = 0;   ///< crash-looped jobs quarantined at boot
    uint64_t truncated_bytes = 0;  ///< torn journal tail dropped
    size_t quarantined_segments = 0;
    /// Non-empty if the journal could not be opened/replayed; the manager
    /// quarantined it (.corrupt) and booted with a fresh one.
    std::string journal_error;
  };

  explicit JobManager(Options options);
  /// Shuts down (graceful drain) if still running.
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Parses, validates and enqueues a job. Returns the job id.
  /// FailedPrecondition "job queue full" when the queue is at capacity and
  /// "server is draining" after Shutdown() began; InvalidArgument for a bad
  /// body.
  Result<std::string> Submit(const std::string& config_text);

  Result<JobStatus> GetStatus(const std::string& id) const;

  /// TSV facts of a terminal job (FormatFactsTsv bytes — identical to
  /// `kgfd_cli discover --out`). A cancelled job returns the partial facts
  /// of its completed relations. FailedPrecondition while queued/running.
  Result<std::string> FactsTsv(const std::string& id) const;

  /// Requests cooperative cancellation: a queued job is dequeued and
  /// terminal immediately (it never starts), a running one stops at its
  /// next checkpoint (manifest intact). OK also when the job is already
  /// terminal (idempotent).
  Status Cancel(const std::string& id);

  /// Graceful drain; blocks until the runner thread exited. Idempotent.
  void Shutdown();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Jobs in submission order (for GET /jobs).
  std::vector<JobStatus> ListJobs() const;

  /// Journal replay summary from construction.
  const RecoveryInfo& recovery() const { return recovery_; }

  /// Simulates a SIGKILL: from the moment of the call, nothing more is
  /// written to the journal or the per-job facts files, the in-flight job
  /// is stopped, and the threads are joined. The on-disk state is then
  /// exactly what a real kill-9 at this point would leave (resume
  /// manifests are tmp+rename atomic, so suppressing only the journal
  /// reproduces the crash window recovery must close). Tests destroy the
  /// manager afterwards and construct a new one over the same work_dir.
  void KillForTesting();

 private:
  struct Job {
    std::string id;
    JobRequest request;
    /// Fresh token per execution attempt (a CancellationToken cannot be
    /// un-cancelled); replaced under mu_ at each attempt start.
    std::unique_ptr<CancellationToken> token;
    JobState state = JobState::kQueued;  // guarded by mu_
    std::string error;                   // guarded by mu_
    size_t relations_total = 0;          // guarded by mu_
    std::atomic<size_t> relations_done{0};
    std::atomic<size_t> rounds_done{0};
    size_t num_facts = 0;          // guarded by mu_
    std::string facts_tsv;         // guarded by mu_, set once terminal
    StoppedReason stopped_reason = StoppedReason::kNone;  // guarded by mu_
    double runtime_seconds = 0.0;  // guarded by mu_
    uint32_t attempts = 0;         // guarded by mu_
    bool user_cancelled = false;   // guarded by mu_ (DELETE vs watchdog)
    bool recovered = false;        // set before the runner starts
    /// Steady-clock ns of the last sign of life (attempt start, relation
    /// done, adaptive round done). 0 while not running.
    std::atomic<int64_t> last_heartbeat_ns{0};
    /// Set by the watchdog when it cancels this attempt for stalling.
    std::atomic<bool> stall_cancelled{false};
  };

  /// Dataset + model loaded once and shared across jobs, plus the
  /// fingerprint-keyed DiscoveryCache for that (model, KG).
  struct LoadedModel {
    std::shared_ptr<Dataset> dataset;
    std::shared_ptr<Model> model;
    uint64_t fingerprint = 0;
    std::shared_ptr<DiscoveryCache> cache;
  };

  void RunnerLoop();
  void WatchdogLoop();
  void RunOne(Job* job);
  Status RunDiscoverJob(Job* job);
  Status RunPipelineJob(Job* job);
  Result<std::shared_ptr<LoadedModel>> GetOrLoadModel(
      const std::string& data_dir, const std::string& checkpoint);
  JobStatus SnapshotLocked(const Job& job) const;

  /// Journal plumbing (all require mu_; no-ops after KillForTesting or
  /// when the journal failed to open).
  void JournalAppendLocked(const JournalRecord& record);
  std::vector<JournalRecord> JournalSnapshotLocked() const;
  /// Terminal flush: persists `<id>.facts.tsv` (tmp+rename), then appends
  /// the kTerminal record. The kFailPointJournalTerminal gate sits in
  /// front of both — a triggered spec simulates a crash in exactly the
  /// pre-terminal-flush window.
  void PersistTerminalLocked(Job* job);
  void OpenJournal();
  void RecoverFromJournal(std::vector<JournalRecord> records);
  void Heartbeat(Job* job);
  void BumpCounter(const char* name, uint64_t delta = 1);

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable watchdog_wakeup_;
  std::deque<Job*> queue_;  // non-owning; jobs_ owns
  std::unordered_map<std::string, std::unique_ptr<Job>> jobs_;
  std::vector<Job*> job_order_;
  uint64_t next_id_ = 1;
  std::atomic<bool> draining_{false};
  std::atomic<bool> crashed_{false};
  std::unique_ptr<JobJournal> journal_;  // null if open failed (degraded)
  RecoveryInfo recovery_;
  std::thread runner_;
  std::thread watchdog_;

  /// (data.dir \n checkpoint) -> loaded artifacts; fingerprint ->
  /// DiscoveryCache. Both only touched from the runner thread and
  /// Shutdown-after-join, guarded by mu_ for safety anyway.
  std::unordered_map<std::string, std::shared_ptr<LoadedModel>> model_cache_;
  std::unordered_map<uint64_t, std::shared_ptr<DiscoveryCache>> caches_;
};

}  // namespace kgfd

#endif  // KGFD_SERVER_JOB_MANAGER_H_
