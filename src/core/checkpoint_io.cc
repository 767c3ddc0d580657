#include "core/checkpoint_io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/io.h"

namespace fairkm {
namespace core {
namespace {

constexpr uint32_t kMagic = 0x464B4D43;  // "CMKF" on disk, read as FKMC
constexpr uint32_t kFormatVersion = 2;
constexpr char kFaultScope[] = "checkpoint";

// Section tags.
constexpr uint32_t kSectionMeta = 1;
constexpr uint32_t kSectionState = 2;
constexpr uint32_t kSectionPruner = 3;

// ---- generic vector plumbing ------------------------------------------

template <typename Vec>
void PutDoubles(io::BinaryWriter* w, const Vec& v) {
  w->PutU64(v.size());
  for (double x : v) w->PutDouble(x);
}

template <typename Vec>
Status GetDoubles(io::BinaryReader* r, Vec* v) {
  size_t n = 0;
  FAIRKM_RETURN_NOT_OK(r->GetCount(sizeof(double), &n));
  v->resize(n);
  for (size_t i = 0; i < n; ++i) {
    FAIRKM_RETURN_NOT_OK(r->GetDouble(&(*v)[i]));
  }
  return Status::OK();
}

void PutSizes(io::BinaryWriter* w, const std::vector<size_t>& v) {
  w->PutU64(v.size());
  for (size_t x : v) w->PutU64(x);
}

Status GetSizes(io::BinaryReader* r, std::vector<size_t>* v) {
  size_t n = 0;
  FAIRKM_RETURN_NOT_OK(r->GetCount(sizeof(uint64_t), &n));
  v->resize(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t x = 0;
    FAIRKM_RETURN_NOT_OK(r->GetU64(&x));
    (*v)[i] = static_cast<size_t>(x);
  }
  return Status::OK();
}

void PutI32s(io::BinaryWriter* w, const std::vector<int32_t>& v) {
  w->PutU64(v.size());
  for (int32_t x : v) w->PutU32(static_cast<uint32_t>(x));
}

Status GetI32s(io::BinaryReader* r, std::vector<int32_t>* v) {
  size_t n = 0;
  FAIRKM_RETURN_NOT_OK(r->GetCount(sizeof(uint32_t), &n));
  v->resize(n);
  for (size_t i = 0; i < n; ++i) {
    uint32_t x = 0;
    FAIRKM_RETURN_NOT_OK(r->GetU32(&x));
    (*v)[i] = static_cast<int32_t>(x);
  }
  return Status::OK();
}

void PutI64s(io::BinaryWriter* w, const std::vector<int64_t>& v) {
  w->PutU64(v.size());
  for (int64_t x : v) w->PutI64(x);
}

Status GetI64s(io::BinaryReader* r, std::vector<int64_t>* v) {
  size_t n = 0;
  FAIRKM_RETURN_NOT_OK(r->GetCount(sizeof(int64_t), &n));
  v->resize(n);
  for (size_t i = 0; i < n; ++i) {
    FAIRKM_RETURN_NOT_OK(r->GetI64(&(*v)[i]));
  }
  return Status::OK();
}

void PutBytes8(io::BinaryWriter* w, const std::vector<uint8_t>& v) {
  w->PutU64(v.size());
  if (!v.empty()) w->PutBytes(v.data(), v.size());
}

Status GetBytes8(io::BinaryReader* r, std::vector<uint8_t>* v) {
  size_t n = 0;
  FAIRKM_RETURN_NOT_OK(r->GetCount(1, &n));
  v->resize(n);
  for (size_t i = 0; i < n; ++i) {
    FAIRKM_RETURN_NOT_OK(r->GetU8(&(*v)[i]));
  }
  return Status::OK();
}

template <typename Inner, typename PutInner>
void PutNested(io::BinaryWriter* w, const std::vector<Inner>& v,
               PutInner put_inner) {
  w->PutU64(v.size());
  for (const Inner& inner : v) put_inner(w, inner);
}

template <typename Inner, typename GetInner>
Status GetNested(io::BinaryReader* r, std::vector<Inner>* v,
                 GetInner get_inner) {
  size_t n = 0;
  // Each non-empty inner vector costs at least its own u64 length header.
  FAIRKM_RETURN_NOT_OK(r->GetCount(sizeof(uint64_t), &n));
  v->clear();
  v->resize(n);
  for (size_t i = 0; i < n; ++i) {
    FAIRKM_RETURN_NOT_OK(get_inner(r, &(*v)[i]));
  }
  return Status::OK();
}

// ---- sections ---------------------------------------------------------

std::string EncodeMeta(const SolverCheckpoint& cp) {
  io::BinaryWriter w;
  w.PutU64(cp.num_rows);
  w.PutU32(static_cast<uint32_t>(cp.k));
  w.PutU64(cp.batch_size);
  w.PutDouble(cp.lambda);
  w.PutU32(static_cast<uint32_t>(cp.sweeps_completed));
  w.PutU8(cp.converged ? 1 : 0);
  w.PutU64(cp.next_point);
  w.PutU64(cp.moves_in_sweep);
  PutDoubles(&w, cp.objective_history);
  w.PutU64(cp.total_candidates);
  w.PutU64(cp.pruned_candidates);
  w.PutDouble(cp.sweep_seconds);
  w.PutU8(cp.has_pruner ? 1 : 0);
  return w.Release();
}

Status DecodeMeta(const std::string& payload, SolverCheckpoint* cp) {
  io::BinaryReader r(payload);
  uint64_t u64 = 0;
  uint32_t u32 = 0;
  uint8_t u8 = 0;
  FAIRKM_RETURN_NOT_OK(r.GetU64(&u64));
  cp->num_rows = static_cast<size_t>(u64);
  FAIRKM_RETURN_NOT_OK(r.GetU32(&u32));
  cp->k = static_cast<int>(u32);
  FAIRKM_RETURN_NOT_OK(r.GetU64(&u64));
  cp->batch_size = static_cast<size_t>(u64);
  FAIRKM_RETURN_NOT_OK(r.GetDouble(&cp->lambda));
  FAIRKM_RETURN_NOT_OK(r.GetU32(&u32));
  cp->sweeps_completed = static_cast<int>(u32);
  FAIRKM_RETURN_NOT_OK(r.GetU8(&u8));
  cp->converged = u8 != 0;
  FAIRKM_RETURN_NOT_OK(r.GetU64(&u64));
  cp->next_point = static_cast<size_t>(u64);
  FAIRKM_RETURN_NOT_OK(r.GetU64(&u64));
  cp->moves_in_sweep = static_cast<size_t>(u64);
  FAIRKM_RETURN_NOT_OK(GetDoubles(&r, &cp->objective_history));
  FAIRKM_RETURN_NOT_OK(r.GetU64(&cp->total_candidates));
  FAIRKM_RETURN_NOT_OK(r.GetU64(&cp->pruned_candidates));
  FAIRKM_RETURN_NOT_OK(r.GetDouble(&cp->sweep_seconds));
  FAIRKM_RETURN_NOT_OK(r.GetU8(&u8));
  cp->has_pruner = u8 != 0;
  return r.ExpectFullyConsumed();
}

std::string EncodeState(const FairKMState::Checkpoint& st) {
  io::BinaryWriter w;
  PutI32s(&w, st.assignment);
  PutSizes(&w, st.counts);
  PutDoubles(&w, st.sums);
  w.PutDouble(st.total_point_norm);
  PutNested(&w, st.cat_counts,
            [](io::BinaryWriter* w2, const std::vector<int64_t>& inner) {
              PutI64s(w2, inner);
            });
  PutNested(&w, st.num_sums,
            [](io::BinaryWriter* w2, const std::vector<double>& inner) {
              PutDoubles(w2, inner);
            });
  w.PutU8(st.use_snapshot ? 1 : 0);
  PutSizes(&w, st.proto_counts);
  PutDoubles(&w, st.proto_sums);
  w.PutU8(st.track_bounds ? 1 : 0);
  PutDoubles(&w, st.drift);
  w.PutDouble(st.max_step_sum);
  return w.Release();
}

Status DecodeState(const std::string& payload, FairKMState::Checkpoint* st) {
  io::BinaryReader r(payload);
  uint8_t u8 = 0;
  FAIRKM_RETURN_NOT_OK(GetI32s(&r, &st->assignment));
  FAIRKM_RETURN_NOT_OK(GetSizes(&r, &st->counts));
  FAIRKM_RETURN_NOT_OK(GetDoubles(&r, &st->sums));
  FAIRKM_RETURN_NOT_OK(r.GetDouble(&st->total_point_norm));
  FAIRKM_RETURN_NOT_OK(GetNested(
      &r, &st->cat_counts,
      [](io::BinaryReader* r2, std::vector<int64_t>* inner) {
        return GetI64s(r2, inner);
      }));
  FAIRKM_RETURN_NOT_OK(GetNested(
      &r, &st->num_sums, [](io::BinaryReader* r2, std::vector<double>* inner) {
        return GetDoubles(r2, inner);
      }));
  FAIRKM_RETURN_NOT_OK(r.GetU8(&u8));
  st->use_snapshot = u8 != 0;
  FAIRKM_RETURN_NOT_OK(GetSizes(&r, &st->proto_counts));
  FAIRKM_RETURN_NOT_OK(GetDoubles(&r, &st->proto_sums));
  FAIRKM_RETURN_NOT_OK(r.GetU8(&u8));
  st->track_bounds = u8 != 0;
  FAIRKM_RETURN_NOT_OK(GetDoubles(&r, &st->drift));
  FAIRKM_RETURN_NOT_OK(r.GetDouble(&st->max_step_sum));
  return r.ExpectFullyConsumed();
}

std::string EncodePruner(const SweepPruner::Checkpoint& pr) {
  io::BinaryWriter w;
  PutDoubles(&w, pr.lb0);
  PutDoubles(&w, pr.drift_ref);
  PutDoubles(&w, pr.lbmin0);
  PutDoubles(&w, pr.max_drift_ref);
  PutBytes8(&w, pr.fresh);
  return w.Release();
}

Status DecodePruner(const std::string& payload, SweepPruner::Checkpoint* pr) {
  io::BinaryReader r(payload);
  FAIRKM_RETURN_NOT_OK(GetDoubles(&r, &pr->lb0));
  FAIRKM_RETURN_NOT_OK(GetDoubles(&r, &pr->drift_ref));
  FAIRKM_RETURN_NOT_OK(GetDoubles(&r, &pr->lbmin0));
  FAIRKM_RETURN_NOT_OK(GetDoubles(&r, &pr->max_drift_ref));
  FAIRKM_RETURN_NOT_OK(GetBytes8(&r, &pr->fresh));
  return r.ExpectFullyConsumed();
}

/// Payload parse failures are corruption from the caller's view, but the
/// parser can also return kDataLoss for reasons worth keeping; only rewrap
/// codes that are not already in the corruption family.
Status AsDataLoss(Status st, const char* what, const std::string& path) {
  if (st.ok() || st.code() == StatusCode::kDataLoss) return st;
  return Status::DataLoss(std::string(what) + " section unreadable in " +
                          path + ": " + st.ToString());
}

}  // namespace

Status WriteSolverCheckpoint(const std::string& path,
                             const SolverCheckpoint& cp) {
  std::vector<io::Section> sections;
  sections.push_back({kSectionMeta, EncodeMeta(cp)});
  sections.push_back({kSectionState, EncodeState(cp.state)});
  if (cp.has_pruner) {
    sections.push_back({kSectionPruner, EncodePruner(cp.pruner)});
  }
  return io::WriteSectionFile(path, kMagic, kFormatVersion, sections,
                              kFaultScope);
}

Result<SolverCheckpoint> ReadSolverCheckpoint(const std::string& path) {
  FAIRKM_ASSIGN_OR_RETURN(
      io::SectionFile file,
      io::ReadSectionFile(path, kMagic, kFormatVersion, kFaultScope));
  SolverCheckpoint cp;
  const io::Section* meta = file.Find(kSectionMeta);
  const io::Section* state = file.Find(kSectionState);
  if (meta == nullptr || state == nullptr) {
    return Status::DataLoss("checkpoint misses a required section: " + path);
  }
  FAIRKM_RETURN_NOT_OK(AsDataLoss(DecodeMeta(meta->payload, &cp), "meta",
                                  path));
  FAIRKM_RETURN_NOT_OK(
      AsDataLoss(DecodeState(state->payload, &cp.state), "state", path));
  if (cp.has_pruner) {
    const io::Section* pruner = file.Find(kSectionPruner);
    if (pruner == nullptr) {
      return Status::DataLoss("checkpoint misses its pruner section: " + path);
    }
    FAIRKM_RETURN_NOT_OK(
        AsDataLoss(DecodePruner(pruner->payload, &cp.pruner), "pruner", path));
  }
  return cp;
}

std::string CheckpointFileName(int sweeps_completed) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%08d.fkmc", sweeps_completed);
  return buf;
}

Result<std::vector<std::string>> ListCheckpointFiles(const std::string& dir) {
  FAIRKM_ASSIGN_OR_RETURN(std::vector<std::string> names,
                          io::ListDirectory(dir));
  std::vector<std::string> out;
  for (const std::string& name : names) {
    if (name.size() == std::strlen("ckpt-00000000.fkmc") &&
        name.rfind("ckpt-", 0) == 0 &&
        name.compare(name.size() - 5, 5, ".fkmc") == 0) {
      out.push_back(name);
    }
  }
  return out;  // ListDirectory sorts; fixed-width names sort chronologically.
}

Status QuarantineCheckpoint(const std::string& path) {
  const std::string quarantined = path + ".corrupt";
  if (::rename(path.c_str(), quarantined.c_str()) != 0) {
    if (errno == ENOENT) return Status::OK();  // already gone
    return Status::IOError("quarantine rename " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status PruneCheckpointDir(const std::string& dir, int keep) {
  if (keep < 1) keep = 1;
  FAIRKM_ASSIGN_OR_RETURN(std::vector<std::string> names,
                          ListCheckpointFiles(dir));
  Status first_error;
  for (size_t i = 0; i + static_cast<size_t>(keep) < names.size(); ++i) {
    Status st = io::RemoveFile(dir + "/" + names[i]);
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  return first_error;
}

}  // namespace core
}  // namespace fairkm
