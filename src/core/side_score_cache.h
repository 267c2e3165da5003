#ifndef KGFD_CORE_SIDE_SCORE_CACHE_H_
#define KGFD_CORE_SIDE_SCORE_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kg/triple_store.h"
#include "kg/types.h"
#include "kge/model.h"

namespace kgfd {

class CancelContext;
class ThreadPool;

/// Caches ScoreObjects / ScoreSubjects passes so every mesh-grid candidate
/// sharing an (s, r) or (r, o) pair ranks against one scoring pass. Entries
/// are keyed on (entity, relation) — not the bare entity — so one cache can
/// be reused across relations without serving stale scores.
///
/// Two usage modes:
///  - On-demand: ObjectsEntry / SubjectsEntry compute-and-cache on miss.
///    Single-threaded only.
///  - Precomputed: PrecomputeObjects / PrecomputeSubjects build the entries
///    for a key list up front, scoring kernels::kQueryBlock keys per call
///    through the model's batch API (ScoreObjectsBatch / ScoreSubjectsBatch)
///    and fanning the blocks out on a ThreadPool. Afterwards FindObjects /
///    FindSubjects are read-only and safe to call from many threads
///    concurrently.
class SideScoreCache {
 public:
  struct Entry {
    std::vector<double> scores;
    /// 1 where the entity forms a known-true triple (filtered protocol) and
    /// must not count as a competitor.
    std::vector<char> excluded;
  };

  /// (entity, relation) pairs addressing object-side entries via the
  /// subject, or subject-side entries via the object.
  using Key = std::pair<EntityId, RelationId>;

  /// Scores of (s, r, o') for all o', computing on miss.
  const Entry& ObjectsEntry(const Model& model, const TripleStore& kg,
                            EntityId s, RelationId r, bool filtered);

  /// Scores of (s', r, o) for all s', computing on miss.
  const Entry& SubjectsEntry(const Model& model, const TripleStore& kg,
                             RelationId r, EntityId o, bool filtered);

  /// Builds the object-side entries for `keys` ((subject, relation) pairs),
  /// skipping keys already cached; the scoring passes run on `pool`
  /// (nullptr = inline). Returns the number of entries computed. When
  /// `cancel` requests a stop, remaining passes are abandoned — entries
  /// already scored stay cached and correct, later keys simply miss.
  size_t PrecomputeObjects(const Model& model, const TripleStore& kg,
                           const std::vector<Key>& keys, bool filtered,
                           ThreadPool* pool,
                           const CancelContext* cancel = nullptr);

  /// Builds the subject-side entries for `keys` ((object, relation) pairs).
  size_t PrecomputeSubjects(const Model& model, const TripleStore& kg,
                            const std::vector<Key>& keys, bool filtered,
                            ThreadPool* pool,
                            const CancelContext* cancel = nullptr);

  /// Read-only lookups; nullptr when the entry was never computed. Safe to
  /// call concurrently as long as no mutating call runs at the same time.
  const Entry* FindObjects(EntityId s, RelationId r) const;
  const Entry* FindSubjects(RelationId r, EntityId o) const;

  void Clear();

  /// On-demand lookup accounting (Precompute* counts neither).
  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }
  size_t num_object_entries() const { return by_subject_.size(); }
  size_t num_subject_entries() const { return by_object_.size(); }

 private:
  static uint64_t PackKey(EntityId e, RelationId r) {
    return (static_cast<uint64_t>(r) << 32) | static_cast<uint64_t>(e);
  }
  static Entry MakeObjectsEntry(const Model& model, const TripleStore& kg,
                                EntityId s, RelationId r, bool filtered);
  static Entry MakeSubjectsEntry(const Model& model, const TripleStore& kg,
                                 RelationId r, EntityId o, bool filtered);

  /// Object-side entries keyed by (subject, relation) and subject-side
  /// entries keyed by (object, relation). unordered_map references stay
  /// valid across inserts, which FindObjects/FindSubjects rely on.
  std::unordered_map<uint64_t, Entry> by_subject_;
  std::unordered_map<uint64_t, Entry> by_object_;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

}  // namespace kgfd

#endif  // KGFD_CORE_SIDE_SCORE_CACHE_H_
