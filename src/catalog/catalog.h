#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/catalog/table.h"
#include "src/common/status.h"
#include "src/storage/buffer_pool.h"

namespace relgraph {

/// Name -> Table directory for one database instance. (The engine is
/// embedded; DDL is a single-threaded setup operation, while the version
/// below is read by every prepared-statement execution on any thread.)
///
/// The catalog carries a monotonically increasing *version*, bumped on
/// every schema change (table create/drop, index create/drop). Prepared
/// statements stamp the version they were planned against and re-plan when
/// it moves — the invalidation protocol behind the engine's plan cache.
/// Index DDL — whether it arrives as a SQL CREATE/DROP INDEX statement or
/// as a native call during GraphStore/VisitedTable setup — goes through
/// the CreateSecondaryIndex/CreateOpenIndex/DropSecondaryIndex methods
/// below, so *every* access-path change invalidates, not just the
/// SQL-surface ones.
class Catalog {
 public:
  explicit Catalog(BufferPool* pool) : pool_(pool) {}

  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }
  void BumpVersion() { version_.fetch_add(1, std::memory_order_release); }

  /// Creates a table; fails with AlreadyExists on a name clash.
  Status CreateTable(const std::string& name, Schema schema,
                     TableOptions options, Table** out);

  /// Adopts an already-constructed table (snapshot attach path: the table
  /// was rebuilt over existing pages with Table::Attach, not created).
  /// Fails with AlreadyExists on a name clash; bumps the catalog version.
  Status AttachTable(std::unique_ptr<Table> table);

  /// Returns nullptr when absent.
  Table* GetTable(const std::string& name);

  /// Drops a table definition and frees its pages for reuse
  /// (Table::Destroy). The definition goes even when the storage walk
  /// fails, so a damaged table can always be dropped; its pages then leak
  /// and the walk's status is returned.
  Status DropTable(const std::string& name);

  /// Catalog-owned index DDL: delegates to the table and bumps the catalog
  /// version so prepared handles re-plan against the new access paths.
  /// `table` may also be a table this catalog does not own (tests build
  /// bare Tables); the version bump is what matters for the handles
  /// planned against this database. See Table::CreateSecondaryIndex for
  /// the index semantics and `name`.
  Status CreateSecondaryIndex(Table* table, const std::string& column,
                              bool unique,
                              const std::string& name = std::string());
  /// See Table::CreateOpenIndex.
  Status CreateOpenIndex(Table* table, const std::string& flag_column,
                         const std::string& dist_column,
                         const std::string& name = std::string());
  Status DropSecondaryIndex(Table* table, const std::string& name);

  std::vector<std::string> TableNames() const;

 private:
  BufferPool* pool_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::atomic<uint64_t> version_{1};
};

}  // namespace relgraph
