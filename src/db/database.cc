#include "src/db/database.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>

namespace relgraph {

namespace {
std::string TempDbPath() {
  static std::atomic<int> counter{0};
  auto dir = std::filesystem::temp_directory_path();
  return (dir / ("relgraph-" + std::to_string(::getpid()) + "-" +
                 std::to_string(counter.fetch_add(1)) + ".db"))
      .string();
}
}  // namespace

Database::Database(DatabaseOptions options) : options_(std::move(options)) {
  if (options_.in_memory) {
    disk_ = std::make_unique<DiskManager>();
  } else {
    std::string path = options_.path.empty() ? TempDbPath() : options_.path;
    disk_ = std::make_unique<DiskManager>(path);
  }
  disk_->set_simulated_io_latency_us(options_.simulated_io_latency_us);
  pool_ = std::make_unique<BufferPool>(options_.buffer_pool_pages, disk_.get(),
                                       options_.concurrent_readers);
  catalog_ = std::make_unique<Catalog>(pool_.get());
}

Database::Database(DatabaseOptions options, std::unique_ptr<DiskManager> disk)
    : options_(std::move(options)), disk_(std::move(disk)) {
  disk_->set_simulated_io_latency_us(options_.simulated_io_latency_us);
  pool_ = std::make_unique<BufferPool>(options_.buffer_pool_pages, disk_.get(),
                                       options_.concurrent_readers);
  catalog_ = std::make_unique<Catalog>(pool_.get());
}

void Database::ResetStats() {
  stats_.Reset();
  pool_->ResetStats();
  disk_->ResetStats();
}

void Database::AppendToLog(std::string sql) {
  if (sql.empty()) return;
  std::lock_guard<std::mutex> lock(log_mu_);
  if (statement_log_.size() >= max_log_entries_) statement_log_.pop_front();
  statement_log_.push_back(std::move(sql));
}

void Database::MaybeSimulateStatementLatency() {
  if (options_.simulated_statement_latency_us <= 0) return;
  auto until = std::chrono::steady_clock::now() +
               std::chrono::microseconds(
                   options_.simulated_statement_latency_us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

}  // namespace relgraph
