// Content-addressed registry of compiled power models — the daemon's cache.
//
// One mutex guards one hash map keyed by ModelId::key. A slot holds either
// an admitted model or a build still in flight; a vector of pointers into
// the admitted slots keeps admission order for save() and entries(). The
// traffic this serves is a few hundred lookups per build, each in front of
// a millisecond-scale evaluation, so an uncontended lock plus one hash
// probe is all the read path needs.
//
// Build deduplication lives here too. get_or_build() is the one entry for
// "the model for this id, constructing it if nobody has": the first caller
// for an id runs the build on its own thread, later callers for the same id
// wait on a shared future, and a clean (kOk) result is admitted before any
// waiter wakes. A degraded or failed result reaches every waiter and is
// then forgotten, so the next request builds again. lookup() — the eval and
// trace path — sees an in-flight id as a miss.
//
// Collision safety: the 64-bit primary key indexes the map; the independent
// 64-bit check hash is compared on every hit, admit and join of an in-flight
// build. Two distinct contents colliding on the primary key is detected
// (typed error) instead of silently serving the wrong macro's model;
// matching on both halves by accident requires a 128-bit collision.
//
// Persistence: save() writes one serialize-v2 model file per entry (each
// carrying its own CRC trailer) plus a CRC-tailed MANIFEST, all via
// atomic_write_file — a crash mid-persist leaves the previous snapshot
// intact. load() warm-starts from such a directory, skipping (and
// counting) entries whose model file is corrupt rather than refusing to
// boot.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "power/power_model.hpp"
#include "serve/service.hpp"

namespace cfpm::serve {

class Registry {
 public:
  struct Entry {
    service::ModelId id;
    std::shared_ptr<const power::PowerModel> model;
    std::string circuit;     ///< display name (stats query)
    std::size_t nodes = 0;   ///< ADD size (0 for non-ADD kinds)
  };

  Registry() = default;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The model admitted under `id`, or nullptr when absent or still being
  /// built. Throws cfpm::Error when the primary key is present but the
  /// check hash differs (64-bit content-hash collision — serving would
  /// return the wrong model). Counts `serve.cache.hit` / `serve.cache.miss`.
  std::shared_ptr<const power::PowerModel> lookup(
      const service::ModelId& id) const;

  /// The model for `id`: a hit returns a reply with cache_hit set and no
  /// construction. On a miss the first caller runs `build` on its own
  /// thread; callers arriving while it runs wait for it and receive the
  /// same reply or exception. A kOk reply is admitted (`circuit` is its
  /// display name) before any waiter wakes; anything else is returned but
  /// not kept. Counts one `serve.cache.hit` or `serve.cache.miss` per call,
  /// before any build or wait. Throws cfpm::Error on a primary-key
  /// collision.
  service::BuildReply get_or_build(
      const service::ModelId& id, const std::string& circuit,
      const std::function<service::BuildReply()>& build);

  /// Admits a model. Idempotent: re-admitting an id already present returns
  /// false and changes nothing. Throws cfpm::Error on a primary-key
  /// collision (same key, different check) and cfpm::ContractError on a
  /// null model.
  bool admit(Entry entry);

  std::size_t size() const;

  /// Stable snapshot of the admitted entries, in admission order.
  std::vector<Entry> entries() const;

  /// Persists every serializable entry into `dir` (created if missing):
  /// <hex-id>.cfpm model files + MANIFEST, each written atomically.
  /// Entries whose model kind has no serializer (Con/Lin baselines) are
  /// skipped and counted in `serve.persist.skipped`. Failpoint:
  /// `serve.persist`.
  void save(const std::string& dir) const;

  /// Warm-starts from a directory written by save(). Returns the number of
  /// entries admitted. A missing directory or MANIFEST is a cold start
  /// (returns 0); a corrupt MANIFEST (CRC/format) throws ParseError; a
  /// corrupt or missing model file skips that entry and counts it in
  /// `serve.persist.rejected` — a damaged cache degrades to rebuilding,
  /// never to serving damaged bits.
  std::size_t load(const std::string& dir);

 private:
  struct Slot {
    Entry entry;  ///< entry.model stays null while the build is in flight
    std::shared_future<service::BuildReply> pending;  ///< in flight only
  };

  /// The slot for id.key, or nullptr. Throws on a check-hash mismatch.
  /// Caller holds mutex_.
  const Slot* find_locked(const service::ModelId& id) const;
  /// Drops the slot of a build of `id` that ended without admission.
  void forget(const service::ModelId& id);

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Slot> slots_;
  // Admitted entries in admission order. Map nodes never move, and an
  // admitted slot is never erased, so these pointers stay valid.
  std::vector<const Entry*> order_;
};

}  // namespace cfpm::serve
