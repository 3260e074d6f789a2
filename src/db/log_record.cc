#include "db/log_record.h"

#include <cstring>

namespace sigsetdb {

namespace {

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back((v >> (8 * i)) & 0xFF);
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back((v >> (8 * i)) & 0xFF);
}

// Cursor over the payload buffer; every Get checks bounds so a corrupted
// length field can never read past the frame.
struct Reader {
  const uint8_t* p;
  size_t n;
  size_t pos = 0;

  bool GetU32(uint32_t* v) {
    if (n - pos < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(p[pos + i]) << (8 * i);
    pos += 4;
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (n - pos < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(p[pos + i]) << (8 * i);
    pos += 8;
    return true;
  }
};

void PutEntry(std::vector<uint8_t>* out, const LogEntry& e) {
  PutU64(out, e.oid.value());
  PutU32(out, static_cast<uint32_t>(e.sets.size()));
  for (const ElementSet& set : e.sets) {
    PutU32(out, static_cast<uint32_t>(set.size()));
    for (uint64_t elem : set) PutU64(out, elem);
  }
}

bool GetEntry(Reader* r, LogEntry* e) {
  uint64_t oid = 0;
  uint32_t n_sets = 0;
  if (!r->GetU64(&oid) || !r->GetU32(&n_sets)) return false;
  e->oid = Oid(oid);
  // Each set costs at least 4 bytes; reject counts the buffer can't hold
  // before reserving memory for them.
  if (n_sets > (r->n - r->pos) / 4) return false;
  e->sets.clear();
  e->sets.reserve(n_sets);
  for (uint32_t i = 0; i < n_sets; ++i) {
    uint32_t count = 0;
    if (!r->GetU32(&count)) return false;
    if (count > (r->n - r->pos) / 8) return false;
    ElementSet set;
    set.reserve(count);
    for (uint32_t j = 0; j < count; ++j) {
      uint64_t elem = 0;
      if (!r->GetU64(&elem)) return false;
      set.push_back(elem);
    }
    e->sets.push_back(std::move(set));
  }
  return true;
}

}  // namespace

LogRecord LogRecord::Mutation(std::vector<LogEntry> deletes,
                              std::vector<LogEntry> inserts) {
  LogRecord rec;
  if (deletes.size() + inserts.size() != 1) {
    rec.type = LogRecordType::kBatch;
  } else if (inserts.empty()) {
    rec.type = LogRecordType::kDelete;
  } else {
    rec.type = LogRecordType::kInsert;
  }
  rec.deletes = std::move(deletes);
  rec.inserts = std::move(inserts);
  return rec;
}

LogRecord LogRecord::CompactCommit(uint64_t generation) {
  LogRecord rec;
  rec.type = LogRecordType::kCompactCommit;
  rec.generation = generation;
  return rec;
}

LogRecord LogRecord::Abort(uint64_t ref_lsn) {
  LogRecord rec;
  rec.type = LogRecordType::kAbort;
  rec.ref_lsn = ref_lsn;
  return rec;
}

std::vector<uint8_t> LogRecord::SerializePayload() const {
  std::vector<uint8_t> out;
  switch (type) {
    case LogRecordType::kInsert:
      PutEntry(&out, inserts[0]);
      break;
    case LogRecordType::kDelete:
      PutEntry(&out, deletes[0]);
      break;
    case LogRecordType::kBatch:
      PutU32(&out, static_cast<uint32_t>(deletes.size()));
      for (const LogEntry& e : deletes) PutEntry(&out, e);
      PutU32(&out, static_cast<uint32_t>(inserts.size()));
      for (const LogEntry& e : inserts) PutEntry(&out, e);
      break;
    case LogRecordType::kCompactCommit:
      PutU64(&out, generation);
      break;
    case LogRecordType::kAbort:
      PutU64(&out, ref_lsn);
      break;
  }
  return out;
}

StatusOr<LogRecord> LogRecord::ParsePayload(uint32_t type, const uint8_t* data,
                                            size_t n) {
  LogRecord rec;
  Reader r{data, n};
  switch (type) {
    case static_cast<uint32_t>(LogRecordType::kInsert): {
      rec.type = LogRecordType::kInsert;
      LogEntry e;
      if (!GetEntry(&r, &e)) return Status::Corruption("bad insert record");
      rec.inserts.push_back(std::move(e));
      break;
    }
    case static_cast<uint32_t>(LogRecordType::kDelete): {
      rec.type = LogRecordType::kDelete;
      LogEntry e;
      if (!GetEntry(&r, &e)) return Status::Corruption("bad delete record");
      rec.deletes.push_back(std::move(e));
      break;
    }
    case static_cast<uint32_t>(LogRecordType::kBatch): {
      rec.type = LogRecordType::kBatch;
      uint32_t n_del = 0;
      if (!r.GetU32(&n_del)) return Status::Corruption("bad batch record");
      if (n_del > (r.n - r.pos) / 12) {
        return Status::Corruption("bad batch record");
      }
      rec.deletes.reserve(n_del);
      for (uint32_t i = 0; i < n_del; ++i) {
        LogEntry e;
        if (!GetEntry(&r, &e)) return Status::Corruption("bad batch record");
        rec.deletes.push_back(std::move(e));
      }
      uint32_t n_ins = 0;
      if (!r.GetU32(&n_ins)) return Status::Corruption("bad batch record");
      if (n_ins > (r.n - r.pos) / 12) {
        return Status::Corruption("bad batch record");
      }
      rec.inserts.reserve(n_ins);
      for (uint32_t i = 0; i < n_ins; ++i) {
        LogEntry e;
        if (!GetEntry(&r, &e)) return Status::Corruption("bad batch record");
        rec.inserts.push_back(std::move(e));
      }
      break;
    }
    case static_cast<uint32_t>(LogRecordType::kCompactCommit):
      rec.type = LogRecordType::kCompactCommit;
      if (!r.GetU64(&rec.generation)) {
        return Status::Corruption("bad compact record");
      }
      break;
    case static_cast<uint32_t>(LogRecordType::kAbort):
      rec.type = LogRecordType::kAbort;
      if (!r.GetU64(&rec.ref_lsn)) return Status::Corruption("bad abort record");
      break;
    default:
      return Status::Corruption("unknown log record type " +
                                std::to_string(type));
  }
  if (r.pos != r.n) {
    return Status::Corruption("trailing bytes in log record payload");
  }
  return rec;
}

}  // namespace sigsetdb
