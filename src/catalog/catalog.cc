#include "src/catalog/catalog.h"

namespace relgraph {

Status Catalog::CreateTable(const std::string& name, Schema schema,
                            TableOptions options, Table** out) {
  if (tables_.count(name) != 0) {
    return Status::AlreadyExists("table " + name + " already exists");
  }
  std::unique_ptr<Table> table;
  RELGRAPH_RETURN_IF_ERROR(
      Table::Create(pool_, name, std::move(schema), std::move(options),
                    &table));
  Table* raw = table.get();
  tables_[name] = std::move(table);
  BumpVersion();
  if (out != nullptr) *out = raw;
  return Status::OK();
}

Status Catalog::AttachTable(std::unique_ptr<Table> table) {
  const std::string& name = table->name();
  if (tables_.count(name) != 0) {
    return Status::AlreadyExists("table " + name + " already exists");
  }
  tables_[name] = std::move(table);
  BumpVersion();
  return Status::OK();
}

Table* Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Status Catalog::DropTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table " + name + " does not exist");
  }
  std::unique_ptr<Table> table = std::move(it->second);
  tables_.erase(it);
  BumpVersion();
  return table->Destroy();
}

Status Catalog::CreateSecondaryIndex(Table* table, const std::string& column,
                                     bool unique, const std::string& name) {
  RELGRAPH_RETURN_IF_ERROR(table->CreateSecondaryIndex(column, unique, name));
  // New access path: cached plans must get a chance to pick it up.
  BumpVersion();
  return Status::OK();
}

Status Catalog::CreateOpenIndex(Table* table, const std::string& flag_column,
                                const std::string& dist_column,
                                const std::string& name) {
  RELGRAPH_RETURN_IF_ERROR(
      table->CreateOpenIndex(flag_column, dist_column, name));
  BumpVersion();
  return Status::OK();
}

Status Catalog::DropSecondaryIndex(Table* table, const std::string& name) {
  RELGRAPH_RETURN_IF_ERROR(table->DropSecondaryIndex(name));
  // Plans probing the dropped index would fail at open; invalidate them.
  BumpVersion();
  return Status::OK();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

}  // namespace relgraph
