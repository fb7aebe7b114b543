#include "nn/plan.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/embedding.h"
#include "nn/flatten.h"
#include "nn/kernels.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/norm.h"
#include "nn/pooling.h"
#include "nn/residual.h"
#include "obs/metrics.h"
#include "tensor/gemm_kernels.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace fedcross::nn::plan {
namespace {

std::int64_t NumelOf(const Tensor::Shape& shape) {
  std::int64_t n = 1;
  for (int d : shape) n *= d;
  return n;
}

// Counts capacity growth across ALL executor scratch (grouped instance
// tables, scratch slots) so the steady-state test can pin it at zero.
std::atomic<std::int64_t> g_scratch_reallocs{0};

// Process-wide logical arena bytes across live PlanStates, mirrored to the
// fl.pool.arena_bytes gauge by Bind() and ~PlanState().
std::atomic<std::int64_t> g_arena_bytes{0};

void AccountArenaBytes(std::int64_t delta) {
  std::int64_t now =
      g_arena_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  obs::MetricsRegistry::Global()
      .GetGauge("fl.pool.arena_bytes")
      .Set(static_cast<double>(now));
}

// Scratch for the per-op GemmGrouped instance table. Thread-local so
// concurrent plan runners never share it; capacity is retained, so the
// steady state allocates nothing.
std::vector<ops::GemmGroup>& GroupScratch(int count) {
  thread_local std::vector<ops::GemmGroup> groups;
  if (static_cast<int>(groups.capacity()) < count) {
    g_scratch_reallocs.fetch_add(1, std::memory_order_relaxed);
  }
  groups.resize(count);
  return groups;
}

// Same, for the fused cross-replica conv-forward instance table.
std::vector<ops::ConvGroup>& ConvScratch(int count) {
  thread_local std::vector<ops::ConvGroup> groups;
  if (static_cast<int>(groups.capacity()) < count) {
    g_scratch_reallocs.fetch_add(1, std::memory_order_relaxed);
  }
  groups.resize(count);
  return groups;
}

float* Resolve(PlanState& state, const BatchRef& batch, Ref ref) {
  switch (ref.space) {
    case Ref::Space::kArena:
      return state.arena.data() + ref.offset;
    case Ref::Space::kInput:
      // The input is only ever read (skip_dx guarantees no gradient is
      // written back into it); const_cast keeps Resolve's signature single.
      return const_cast<float*>(batch.features + ref.offset);
    case Ref::Space::kNone:
      break;
  }
  return nullptr;
}

// Thread-local fp32 compute scratch, one buffer per role (ScratchRole).
// A slot serves all `count` replicas of a call: replica r's window starts
// at r*n, and r == 0 sizes the slot. Capacity is retained, so the steady
// state allocates nothing.
enum ScratchRole : int {
  kWideGemm,    // conv: batch-wide forward output / transposed dY
  kWideDCols,   // conv: batch-wide dColumns
  kStepInput,   // lstm: x_t gathered from [batch, time, input]
  kStepDh,      // lstm: dh_t and dh_{t-1}, ping-ponged across timesteps
  kStepDhPrev,
  kStepDc,      // lstm: dc_t
  kStepDz,      // lstm: gate gradients
  kStepDx,      // lstm: dx_t before its scatter into [batch, time, input]
  kScratchSlots
};

float* ScratchSlot(int slot, std::int64_t n, int r, int count) {
  struct Buf {
    std::vector<float> data;
    std::int64_t n = 0;  // per-replica element count of the current use
  };
  thread_local Buf bufs[kScratchSlots];
  FC_CHECK_GE(slot, 0);
  FC_CHECK_LT(slot, kScratchSlots);
  Buf& b = bufs[slot];
  if (r == 0) {
    std::size_t need = static_cast<std::size_t>(n) * count;
    if (b.data.capacity() < need) {
      g_scratch_reallocs.fetch_add(1, std::memory_order_relaxed);
    }
    if (b.data.size() < need) b.data.resize(need);
    b.n = n;
  }
  FC_CHECK_EQ(b.n, n);
  return b.data.data() + static_cast<std::int64_t>(r) * n;
}

// dst[j][i][:] = src[i][j][:] for src of shape [outer, inner, area]: moves a
// conv operand between the arena's per-image [batch, rows, area] layout and
// the batch-wide GEMM's [rows, batch*area] (image b at column b*area).
void SwapOuterDims(const float* src, int outer, int inner, std::int64_t area,
                   float* dst) {
  const std::size_t bytes = static_cast<std::size_t>(area) * sizeof(float);
  for (int i = 0; i < outer; ++i) {
    for (int j = 0; j < inner; ++j) {
      std::memcpy(dst + (static_cast<std::int64_t>(j) * outer + i) * area,
                  src + (static_cast<std::int64_t>(i) * inner + j) * area,
                  bytes);
    }
  }
}

// A window into an arena slab: the ref `base.offset + delta`.
Ref Window(Ref base, std::int64_t delta) {
  FC_CHECK(base.space == Ref::Space::kArena);
  return Ref{Ref::Space::kArena, base.offset + delta};
}

}  // namespace

namespace testing {
std::int64_t ScratchReallocEvents() {
  return g_scratch_reallocs.load(std::memory_order_relaxed);
}
}  // namespace testing

std::optional<Program> Program::Compile(Sequential& model,
                                        const Tensor::Shape& input_shape) {
  FC_CHECK_GE(static_cast<int>(input_shape.size()), 2);
  Program p;
  p.input_shape = input_shape;
  p.batch = input_shape[0];
  p.input_floats = NumelOf(input_shape);
  FC_CHECK_GT(p.batch, 0);

  auto alloc = [&p](std::int64_t n) {
    Ref ref{Ref::Space::kArena, p.arena_floats};
    p.arena_floats += n;
    return ref;
  };

  // Geometry + scratch for a conv step (shared by the straight-line branch
  // and the residual lowering). Leaves y/dy for the caller.
  auto make_conv = [&](int layer_idx, int sub, Conv2d* conv,
                       const Tensor::Shape& in, Ref x, Ref dx) {
    Op op;
    op.kind = OpKind::kConv;
    op.layer = layer_idx;
    op.sub = sub;
    op.x = x;
    op.dx = dx;
    op.skip_dx = dx.space == Ref::Space::kNone;
    op.batch = in[0];
    op.channels = in[1];
    op.height = in[2];
    op.width = in[3];
    op.out_channels = conv->out_channels();
    op.kernel = conv->kernel();
    op.stride = conv->stride();
    op.pad = conv->pad();
    op.out_h = ops::ConvOutSize(op.height, op.kernel, op.stride, op.pad);
    op.out_w = ops::ConvOutSize(op.width, op.kernel, op.stride, op.pad);
    std::int64_t patch =
        static_cast<std::int64_t>(op.channels) * op.kernel * op.kernel;
    std::int64_t out_area = static_cast<std::int64_t>(op.out_h) * op.out_w;
    // One image has nothing to batch; the per-image path also keeps the
    // cross-replica interleave for it.
    const bool batched = op.batch > 1;
    op.wide_y = batched && ops::detail::BatchWideGemmExact(
                               op.out_channels, out_area, patch, op.batch);
    op.wide_dx = batched && !op.skip_dx &&
                 ops::detail::BatchWideGemmExact(patch, out_area,
                                                 op.out_channels, op.batch);
    op.s0 = alloc(op.batch * patch * out_area);  // im2col, kept for backward
    // dColumns of one image; the batch-wide dx GEMM uses executor scratch.
    if (!op.skip_dx && !op.wide_dx) op.s1 = alloc(patch * out_area);
    return op;
  };

  // Geometry + scratch for a groupnorm step. dx must be a real buffer
  // (dgamma/dbeta ride on the backward kernel); callers that would skip it
  // allocate one.
  auto make_gn = [&](int layer_idx, int sub, GroupNorm* gn,
                     const Tensor::Shape& in, Ref x, Ref dx) {
    Op op;
    op.kind = OpKind::kGroupNorm;
    op.layer = layer_idx;
    op.sub = sub;
    op.x = x;
    op.dx = dx;
    op.skip_dx = false;
    op.batch = in[0];
    op.channels = in[1];
    op.height = in[2];
    op.width = in[3];
    op.groups = gn->groups();
    op.eps = gn->eps();
    op.numel = NumelOf(in);
    op.s0 = alloc(op.numel);                                          // xhat
    op.s1 = alloc(static_cast<std::int64_t>(op.batch) * op.groups);   // inv_std
    return op;
  };

  Tensor::Shape shape = input_shape;  // current activation shape
  Ref cur{Ref::Space::kInput, 0};
  Ref cur_grad;  // kNone until the first compute op

  for (int i = 0; i < model.num_layers(); ++i) {
    Layer* layer = model.layer(i);
    Op op;
    op.layer = i;
    op.x = cur;
    op.dx = cur_grad;
    op.skip_dx = cur_grad.space == Ref::Space::kNone;

    if (auto* lin = dynamic_cast<Linear*>(layer)) {
      if (shape.size() != 2 || shape[1] != lin->in_features()) return std::nullopt;
      op.kind = OpKind::kLinear;
      op.batch = shape[0];
      op.cols_in = lin->in_features();
      op.cols_out = lin->out_features();
      shape = {op.batch, op.cols_out};
    } else if (auto* conv = dynamic_cast<Conv2d*>(layer)) {
      if (shape.size() != 4 || shape[1] != conv->in_channels()) return std::nullopt;
      op = make_conv(i, -1, conv, shape, cur, cur_grad);
      shape = {op.batch, op.out_channels, op.out_h, op.out_w};
    } else if (dynamic_cast<Relu*>(layer) != nullptr) {
      op.kind = OpKind::kRelu;
      op.numel = NumelOf(shape);
    } else if (dynamic_cast<Flatten*>(layer) != nullptr) {
      // Metadata-only on contiguous row-major buffers: alias, no op.
      std::int64_t features = NumelOf(shape) / shape[0];
      shape = {shape[0], static_cast<int>(features)};
      continue;
    } else if (auto* pool = dynamic_cast<MaxPool2d*>(layer)) {
      if (shape.size() != 4) return std::nullopt;
      op.kind = OpKind::kMaxPool;
      op.batch = shape[0];
      op.channels = shape[1];
      op.height = shape[2];
      op.width = shape[3];
      op.kernel = pool->kernel();
      op.stride = pool->stride();
      op.out_h = ops::ConvOutSize(op.height, op.kernel, op.stride, /*pad=*/0);
      op.out_w = ops::ConvOutSize(op.width, op.kernel, op.stride, /*pad=*/0);
      op.argmax_slot = static_cast<int>(p.argmax_sizes.size());
      p.argmax_sizes.push_back(static_cast<std::int64_t>(op.batch) *
                               op.channels * op.out_h * op.out_w);
      shape = {op.batch, op.channels, op.out_h, op.out_w};
    } else if (dynamic_cast<GlobalAvgPool*>(layer) != nullptr) {
      if (shape.size() != 4) return std::nullopt;
      op.kind = OpKind::kGlobalAvgPool;
      op.batch = shape[0];
      op.channels = shape[1];
      op.height = shape[2];
      op.width = shape[3];
      shape = {op.batch, op.channels};
    } else if (auto* gn = dynamic_cast<GroupNorm*>(layer)) {
      if (shape.size() != 4 || shape[1] != gn->channels()) return std::nullopt;
      op = make_gn(i, -1, gn, shape, cur, cur_grad);
      // dgamma/dbeta always need the backward pass; give the kernel a dx
      // buffer even when the input gradient itself is unused.
      if (op.dx.space == Ref::Space::kNone) op.dx = alloc(op.numel);
    } else if (auto* block = dynamic_cast<ResidualBlock*>(layer)) {
      // Residual lowering: a short branch in the step graph.
      //   main: conv1 -> gn1 -> relu -> conv2 -> gn2 ----+
      //   skip: input, or proj_conv -> proj_gn ----------- kAdd -> relu_out
      // The two branch outputs' gradient refs BOTH alias dSum (written once
      // by relu_out's backward), so kAdd needs no backward work; the two
      // branch input gradients are merged by a trailing kAccumGrad
      // (emitted first => runs last in the reverse sweep), the same
      // kernels::Add the layer path uses.
      if (shape.size() != 4) return std::nullopt;
      auto* conv1 = dynamic_cast<Conv2d*>(block->sub_layer(ResidualBlock::kConv1));
      auto* norm1 = dynamic_cast<GroupNorm*>(block->sub_layer(ResidualBlock::kNorm1));
      auto* conv2 = dynamic_cast<Conv2d*>(block->sub_layer(ResidualBlock::kConv2));
      auto* norm2 = dynamic_cast<GroupNorm*>(block->sub_layer(ResidualBlock::kNorm2));
      if (conv1 == nullptr || norm1 == nullptr || conv2 == nullptr ||
          norm2 == nullptr || shape[1] != conv1->in_channels()) {
        return std::nullopt;
      }
      std::int64_t in_numel = NumelOf(shape);
      bool have_din = cur_grad.space != Ref::Space::kNone;

      // conv1 fixes the block's output geometry.
      Op c1 = make_conv(i, ResidualBlock::kConv1, conv1, shape, cur, cur_grad);
      Tensor::Shape out_shape = {c1.batch, c1.out_channels, c1.out_h, c1.out_w};
      std::int64_t out_numel = NumelOf(out_shape);

      Ref sum = alloc(out_numel);    // E2 + skip
      Ref dsum = alloc(out_numel);   // shared gradient of both branch outputs
      Ref out = alloc(out_numel);    // relu_out activation (block output)
      Ref dout = alloc(out_numel);
      Ref dpin;                      // projection-path input gradient
      if (block->has_projection() && have_din) dpin = alloc(in_numel);

      if (have_din) {
        Op acc;
        acc.kind = OpKind::kAccumGrad;
        acc.layer = i;
        acc.numel = in_numel;
        acc.dx = cur_grad;                                  // main-path dI
        acc.dy = block->has_projection() ? dpin : dsum;     // skip-path dI
        p.ops.push_back(acc);
      }

      c1.y = alloc(out_numel);
      c1.dy = alloc(out_numel);
      p.ops.push_back(c1);

      Op n1 = make_gn(i, ResidualBlock::kNorm1, norm1, out_shape, c1.y, c1.dy);
      if (norm1->channels() != c1.out_channels) return std::nullopt;
      n1.y = alloc(out_numel);
      n1.dy = alloc(out_numel);
      p.ops.push_back(n1);

      Op r1;
      r1.kind = OpKind::kRelu;
      r1.layer = i;
      r1.numel = out_numel;
      r1.x = n1.y;
      r1.dx = n1.dy;
      r1.y = alloc(out_numel);
      r1.dy = alloc(out_numel);
      p.ops.push_back(r1);

      if (conv2->in_channels() != c1.out_channels) return std::nullopt;
      Op c2 = make_conv(i, ResidualBlock::kConv2, conv2, out_shape, r1.y, r1.dy);
      if (c2.out_h != c1.out_h || c2.out_w != c1.out_w) return std::nullopt;
      c2.y = alloc(out_numel);
      c2.dy = alloc(out_numel);
      p.ops.push_back(c2);

      Op n2 = make_gn(i, ResidualBlock::kNorm2, norm2, out_shape, c2.y, c2.dy);
      n2.y = alloc(out_numel);
      n2.dy = dsum;  // ALIAS: main-branch output gradient IS dSum
      p.ops.push_back(n2);

      Ref skip = cur;  // identity skip by default
      if (block->has_projection()) {
        auto* pconv =
            dynamic_cast<Conv2d*>(block->sub_layer(ResidualBlock::kProjConv));
        auto* pnorm =
            dynamic_cast<GroupNorm*>(block->sub_layer(ResidualBlock::kProjNorm));
        if (pconv == nullptr || pnorm == nullptr) return std::nullopt;
        Op pc = make_conv(i, ResidualBlock::kProjConv, pconv, shape, cur, dpin);
        if (pc.out_h != c1.out_h || pc.out_w != c1.out_w ||
            pc.out_channels != c1.out_channels) {
          return std::nullopt;
        }
        pc.y = alloc(out_numel);
        pc.dy = alloc(out_numel);
        p.ops.push_back(pc);

        Op pn = make_gn(i, ResidualBlock::kProjNorm, pnorm, out_shape, pc.y,
                        pc.dy);
        pn.y = alloc(out_numel);
        pn.dy = dsum;  // ALIAS: skip-branch output gradient IS dSum
        p.ops.push_back(pn);
        skip = pn.y;
      }

      Op add;
      add.kind = OpKind::kAdd;
      add.layer = i;
      add.numel = out_numel;
      add.x = n2.y;
      add.x2 = skip;
      add.y = sum;
      add.dy = dsum;
      add.skip_dx = true;  // backward is the aliasing no-op
      p.ops.push_back(add);

      Op ro;
      ro.kind = OpKind::kRelu;
      ro.layer = i;
      ro.numel = out_numel;
      ro.x = sum;
      ro.dx = dsum;
      ro.y = out;
      ro.dy = dout;
      p.ops.push_back(ro);

      shape = out_shape;
      cur = out;
      cur_grad = dout;
      continue;
    } else if (auto* emb = dynamic_cast<Embedding*>(layer)) {
      // Only lowered as the FIRST layer: the layer path stops backprop at
      // the embedding (discrete ids), so a mid-network embedding would keep
      // accumulating parameter gradients below it in the plan while the
      // layer path would not — a divergence, so refuse it.
      if (!p.ops.empty() || cur.space != Ref::Space::kInput ||
          shape.size() != 2) {
        return std::nullopt;
      }
      op.kind = OpKind::kEmbedding;
      op.batch = shape[0];
      op.time = shape[1];
      op.cols_out = emb->embed_dim();
      op.vocab = emb->vocab_size();
      op.skip_dx = true;  // token ids have no gradient
      op.dx = Ref{};
      op.argmax_slot = static_cast<int>(p.argmax_sizes.size());
      p.argmax_sizes.push_back(static_cast<std::int64_t>(op.batch) * op.time);
      shape = {op.batch, op.time, op.cols_out};
    } else if (auto* lstm = dynamic_cast<Lstm*>(layer)) {
      if (shape.size() != 3 || shape[2] != lstm->input_dim()) return std::nullopt;
      op.kind = OpKind::kLstm;
      op.batch = shape[0];
      op.time = shape[1];
      op.cols_in = lstm->input_dim();
      op.cols_out = lstm->hidden_dim();
      std::int64_t B = op.batch, T = op.time, H = op.cols_out;
      op.s0 = alloc(T * B * 4 * H);    // activated gates, one window per t
      op.s1 = alloc(T * B * H);        // cells
      op.s2 = alloc((T + 1) * B * H);  // hiddens; window 0 is h_{-1} = 0
      // The output h_T is the last hiddens window — alias it, no copy.
      op.y = Window(op.s2, T * B * H);
      op.dy = alloc(B * H);
      shape = {op.batch, static_cast<int>(H)};
      cur = op.y;
      cur_grad = op.dy;
      p.ops.push_back(op);
      continue;
    } else {
      return std::nullopt;  // a layer kind with no lowering
    }

    std::int64_t out_numel = NumelOf(shape);
    op.y = alloc(out_numel);
    op.dy = alloc(out_numel);
    cur = op.y;
    cur_grad = op.dy;
    p.ops.push_back(op);
  }

  if (p.ops.empty() || cur.space != Ref::Space::kArena) return std::nullopt;
  if (shape.size() != 2) return std::nullopt;  // loss wants [batch, classes]
  p.classes = shape[1];
  p.logits = cur;
  p.dlogits = cur_grad;
  return p;
}

PlanState::~PlanState() {
  if (accounted_bytes != 0) AccountArenaBytes(-accounted_bytes);
}

void PlanState::Bind(const Program& prog, Sequential& m) {
  program = &prog;
  model = &m;
  FC_CHECK_GT(prog.arena_floats, 0);
  FC_CHECK_LE(prog.arena_floats, static_cast<std::int64_t>(1) << 31);
  arena.ResizeTo({static_cast<int>(prog.arena_floats)});
  std::int64_t bytes =
      prog.arena_floats * static_cast<std::int64_t>(sizeof(float));
  if (bytes != accounted_bytes) {
    AccountArenaBytes(bytes - accounted_bytes);
    accounted_bytes = bytes;
  }
  if (argmax.size() != prog.argmax_sizes.size()) {
    argmax.resize(prog.argmax_sizes.size());
  }
  for (std::size_t i = 0; i < prog.argmax_sizes.size(); ++i) {
    if (static_cast<std::int64_t>(argmax[i].size()) != prog.argmax_sizes[i]) {
      argmax[i].resize(prog.argmax_sizes[i]);
    }
  }
  bindings.assign(prog.ops.size(), OpBinding{});
  for (std::size_t j = 0; j < prog.ops.size(); ++j) {
    const Op& op = prog.ops[j];
    Layer* layer = m.layer(op.layer);
    if (op.sub >= 0) {
      auto* block = dynamic_cast<ResidualBlock*>(layer);
      FC_CHECK(block != nullptr);
      layer = block->sub_layer(op.sub);
      FC_CHECK(layer != nullptr);
    }
    switch (op.kind) {
      case OpKind::kLinear:
        bindings[j].linear = dynamic_cast<Linear*>(layer);
        FC_CHECK(bindings[j].linear != nullptr);
        break;
      case OpKind::kConv:
        bindings[j].conv = dynamic_cast<Conv2d*>(layer);
        FC_CHECK(bindings[j].conv != nullptr);
        break;
      case OpKind::kGroupNorm:
        bindings[j].gn = dynamic_cast<GroupNorm*>(layer);
        FC_CHECK(bindings[j].gn != nullptr);
        break;
      case OpKind::kLstm:
        bindings[j].lstm = dynamic_cast<Lstm*>(layer);
        FC_CHECK(bindings[j].lstm != nullptr);
        break;
      case OpKind::kEmbedding:
        bindings[j].embedding = dynamic_cast<Embedding*>(layer);
        FC_CHECK(bindings[j].embedding != nullptr);
        break;
      default:
        break;  // paramless elementwise/pool/add ops need no binding
    }
  }
}


void ExecuteStep(const Program& p, PlanState* const* states,
                 const BatchRef* batches, int count, float* loss,
                 int* correct, const float* grad_scales) {
  FC_CHECK_GT(count, 0);

  // ---- Forward ----
  for (std::size_t j = 0; j < p.ops.size(); ++j) {
    const Op& op = p.ops[j];
    switch (op.kind) {
      case OpKind::kAccumGrad:
        break;  // backward-only
      case OpKind::kLinear: {
        auto& groups = GroupScratch(count);
        for (int r = 0; r < count; ++r) {
          Linear* lin = states[r]->bindings[j].linear;
          groups[r] = {Resolve(*states[r], batches[r], op.x),
                       lin->weight_param().value.data(),
                       Resolve(*states[r], batches[r], op.y)};
        }
        ops::GemmGrouped(false, false, op.batch, op.cols_out, op.cols_in,
                         1.0f, op.cols_in, op.cols_out, 0.0f, op.cols_out,
                         groups.data(), count);
        for (int r = 0; r < count; ++r) {
          kernels::BiasAddRows(
              Resolve(*states[r], batches[r], op.y),
              states[r]->bindings[j].linear->bias_param().value.data(),
              op.batch, op.cols_out);
        }
        break;
      }
      case OpKind::kConv: {
        std::int64_t patch =
            static_cast<std::int64_t>(op.channels) * op.kernel * op.kernel;
        std::int64_t out_area = static_cast<std::int64_t>(op.out_h) * op.out_w;
        std::int64_t in_stride =
            static_cast<std::int64_t>(op.channels) * op.height * op.width;
        std::int64_t col_size = patch * out_area;
        std::int64_t yn = op.batch * (op.out_channels * out_area);
        // Image b's columns: a column block of one [patch, batch*out_area]
        // matrix (wide_y) or its own dense [patch, out_area] block.
        const std::int64_t wide_n = op.batch * out_area;
        const std::int64_t col_ld = op.wide_y ? wide_n : out_area;
        const std::int64_t col_image = op.wide_y ? out_area : col_size;
        for (int r = 0; r < count; ++r) {
          const float* x = Resolve(*states[r], batches[r], op.x);
          float* cols = Resolve(*states[r], batches[r], op.s0);
          for (int b = 0; b < op.batch; ++b) {
            ops::Im2Col(x + b * in_stride, op.channels, op.height, op.width,
                        op.kernel, op.kernel, op.stride, op.pad,
                        cols + b * col_image, col_ld);
          }
          if (!op.wide_y) continue;
          // One GEMM over the whole batch into scratch (one buffer serves
          // every replica in turn), transposed per image into y.
          Conv2d* conv = states[r]->bindings[j].conv;
          float* wide = ScratchSlot(kWideGemm, yn, 0, 1);
          ops::Gemm(false, false, op.out_channels, static_cast<int>(wide_n),
                    static_cast<int>(patch), 1.0f,
                    conv->weight_param().value.data(), static_cast<int>(patch),
                    cols, static_cast<int>(wide_n), 0.0f, wide,
                    static_cast<int>(wide_n));
          float* y = Resolve(*states[r], batches[r], op.y);
          SwapOuterDims(wide, op.out_channels, op.batch, out_area, y);
          kernels::ConvBiasAdd(y, conv->bias_param().value.data(), op.batch,
                               op.out_channels, static_cast<int>(out_area));
        }
        if (op.wide_y) break;
        // One fused cross-replica grouped conv over all images.
        auto& cgroups = ConvScratch(count);
        for (int r = 0; r < count; ++r) {
          cgroups[r] = {
              states[r]->bindings[j].conv->weight_param().value.data(),
              Resolve(*states[r], batches[r], op.s0),
              Resolve(*states[r], batches[r], op.y)};
        }
        ops::ConvGrouped(op.batch, op.out_channels, static_cast<int>(out_area),
                         static_cast<int>(patch), cgroups.data(), count);
        for (int r = 0; r < count; ++r) {
          kernels::ConvBiasAdd(
              Resolve(*states[r], batches[r], op.y),
              states[r]->bindings[j].conv->bias_param().value.data(),
              op.batch, op.out_channels, static_cast<int>(out_area));
        }
        break;
      }
      case OpKind::kRelu:
        for (int r = 0; r < count; ++r) {
          kernels::ReluForward(Resolve(*states[r], batches[r], op.x),
                               Resolve(*states[r], batches[r], op.y),
                               op.numel);
        }
        break;
      case OpKind::kAdd:
        for (int r = 0; r < count; ++r) {
          kernels::Add(Resolve(*states[r], batches[r], op.x),
                       Resolve(*states[r], batches[r], op.x2),
                       Resolve(*states[r], batches[r], op.y), op.numel);
        }
        break;
      case OpKind::kMaxPool:
        for (int r = 0; r < count; ++r) {
          kernels::MaxPoolForward(
              Resolve(*states[r], batches[r], op.x),
              Resolve(*states[r], batches[r], op.y),
              states[r]->argmax[op.argmax_slot].data(), op.batch, op.channels,
              op.height, op.width, op.out_h, op.out_w, op.kernel, op.stride);
        }
        break;
      case OpKind::kGlobalAvgPool:
        for (int r = 0; r < count; ++r) {
          kernels::GlobalAvgPoolForward(
              Resolve(*states[r], batches[r], op.x),
              Resolve(*states[r], batches[r], op.y), op.batch, op.channels,
              op.height * op.width);
        }
        break;
      case OpKind::kGroupNorm:
        for (int r = 0; r < count; ++r) {
          GroupNorm* gn = states[r]->bindings[j].gn;
          kernels::GroupNormForward(
              Resolve(*states[r], batches[r], op.x),
              Resolve(*states[r], batches[r], op.y),
              Resolve(*states[r], batches[r], op.s0),
              Resolve(*states[r], batches[r], op.s1),
              gn->gamma_param().value.data(), gn->beta_param().value.data(),
              op.batch, op.channels, op.groups, op.height * op.width, op.eps);
        }
        break;
      case OpKind::kEmbedding: {
        std::int64_t tokens = static_cast<std::int64_t>(op.batch) * op.time;
        for (int r = 0; r < count; ++r) {
          kernels::EmbeddingGather(
              batches[r].features + op.x.offset, tokens, op.vocab,
              states[r]->bindings[j].embedding->table_param().value.data(),
              op.cols_out, states[r]->argmax[op.argmax_slot].data(),
              Resolve(*states[r], batches[r], op.y));
        }
        break;
      }
      case OpKind::kLstm: {
        const int B = op.batch, T = op.time, E = op.cols_in, H = op.cols_out;
        const int H4 = 4 * H;
        std::int64_t zn = static_cast<std::int64_t>(B) * H4;
        std::int64_t hn = static_cast<std::int64_t>(B) * H;
        // Replica-outer, timestep-inner: the gate GEMMs are wider than the
        // interleaved grouped kernel's lane width (n = 4H), so fusing them
        // across replicas never engages the fast path — walking one replica
        // through all T steps instead keeps its weights and slabs hot, like
        // the layer path. Each standalone ops::Gemm is bit-identical to the
        // grouped instance by the GemmGrouped contract, so this ordering is
        // a pure locality win.
        for (int r = 0; r < count; ++r) {
          Lstm* lstm = states[r]->bindings[j].lstm;
          const float* wx = lstm->weight_x_param().value.data();
          const float* wh = lstm->weight_h_param().value.data();
          const float* bias = lstm->bias_param().value.data();
          // h_{-1} = 0 (hiddens window 0), exactly like the layer path's
          // hiddens_[0].Fill(0).
          float* h0 = Resolve(*states[r], batches[r], op.s2);
          std::fill(h0, h0 + hn, 0.0f);
          // Timestep slices are gathered from the whole input below, the
          // same pure copy the layer performs.
          const float* x = Resolve(*states[r], batches[r], op.x);
          for (int t = 0; t < T; ++t) {
            float* xt = ScratchSlot(kStepInput,
                                    static_cast<std::int64_t>(B) * E, r,
                                    count);
            for (int b = 0; b < B; ++b) {
              const float* src =
                  x + (static_cast<std::int64_t>(b) * T + t) * E;
              float* dst = xt + static_cast<std::int64_t>(b) * E;
              for (int d = 0; d < E; ++d) dst[d] = src[d];
            }
            Ref gate_w = Window(op.s0, static_cast<std::int64_t>(t) * zn);
            Ref cell_w = Window(op.s1, static_cast<std::int64_t>(t) * hn);
            Ref hid_w = Window(op.s2, static_cast<std::int64_t>(t + 1) * hn);
            // z = x_t Wx  (beta 0 overwrites the gate window)
            float* z = Resolve(*states[r], batches[r], gate_w);
            ops::Gemm(false, false, B, H4, E, 1.0f, xt, E, wx, H4, 0.0f, z,
                      H4);
            // z += h_{t-1} Wh
            const float* h_prev =
                Resolve(*states[r], batches[r],
                        Window(op.s2, static_cast<std::int64_t>(t) * hn));
            ops::Gemm(false, false, B, H4, H, 1.0f, h_prev, H, wh, H4, 1.0f,
                      z, H4);
            // bias, then the fused gate activation + state update into the
            // activated-gates / cell / hidden windows.
            kernels::BiasAddRows(z, bias, B, H4);
            const float* c_prev =
                t > 0 ? Resolve(*states[r], batches[r],
                                Window(op.s1,
                                       static_cast<std::int64_t>(t - 1) * hn))
                      : nullptr;
            float* c = Resolve(*states[r], batches[r], cell_w);
            float* h = Resolve(*states[r], batches[r], hid_w);
            kernels::LstmGateForward(z, c_prev, c, h, B, H);
          }
        }
        break;
      }
    }
  }

  // ---- Loss (softmax cross-entropy, grad written into dlogits) ----
  {
    std::int64_t n = static_cast<std::int64_t>(p.batch) * p.classes;
    for (int r = 0; r < count; ++r) {
      float* dlogits = Resolve(*states[r], batches[r], p.dlogits);
      std::memcpy(dlogits, Resolve(*states[r], batches[r], p.logits),
                  static_cast<std::size_t>(n) * sizeof(float));
      kernels::CrossEntropyInPlace(dlogits, p.batch, p.classes,
                                   batches[r].labels, /*compute_grad=*/true,
                                   &loss[r], &correct[r]);
      if (grad_scales != nullptr && grad_scales[r] != 1.0f) {
        for (std::int64_t i = 0; i < n; ++i) dlogits[i] *= grad_scales[r];
      }
    }
  }

  // ---- Backward ----
  for (std::size_t idx = p.ops.size(); idx-- > 0;) {
    const Op& op = p.ops[idx];
    std::size_t j = idx;
    switch (op.kind) {
      case OpKind::kAdd:
        break;  // both branch dy refs alias this op's dy: nothing to move
      case OpKind::kAccumGrad:
        // dx += dy — the residual skip-gradient merge, same kernels::Add the
        // layer path uses (and the same operand order).
        for (int r = 0; r < count; ++r) {
          float* dx = Resolve(*states[r], batches[r], op.dx);
          kernels::Add(dx, Resolve(*states[r], batches[r], op.dy), dx,
                       op.numel);
        }
        break;
      case OpKind::kLinear: {
        auto& groups = GroupScratch(count);
        // dW += X^T * dY
        for (int r = 0; r < count; ++r) {
          groups[r] = {
              Resolve(*states[r], batches[r], op.x),
              Resolve(*states[r], batches[r], op.dy),
              states[r]->bindings[j].linear->weight_param().grad.data()};
        }
        ops::GemmGrouped(true, false, op.cols_in, op.cols_out, op.batch, 1.0f,
                         op.cols_in, op.cols_out, 1.0f, op.cols_out,
                         groups.data(), count);
        // db += column sums of dY
        for (int r = 0; r < count; ++r) {
          kernels::BiasGradRows(
              Resolve(*states[r], batches[r], op.dy),
              states[r]->bindings[j].linear->bias_param().grad.data(),
              op.batch, op.cols_out);
        }
        // dX = dY * W^T — skipped for the first layer (nothing reads it)
        if (!op.skip_dx) {
          for (int r = 0; r < count; ++r) {
            groups[r] = {
                Resolve(*states[r], batches[r], op.dy),
                states[r]->bindings[j].linear->weight_param().value.data(),
                Resolve(*states[r], batches[r], op.dx)};
          }
          ops::GemmGrouped(false, true, op.batch, op.cols_in, op.cols_out,
                           1.0f, op.cols_out, op.cols_out, 0.0f, op.cols_in,
                           groups.data(), count);
        }
        break;
      }
      case OpKind::kConv: {
        std::int64_t patch =
            static_cast<std::int64_t>(op.channels) * op.kernel * op.kernel;
        std::int64_t out_area = static_cast<std::int64_t>(op.out_h) * op.out_w;
        std::int64_t in_stride =
            static_cast<std::int64_t>(op.channels) * op.height * op.width;
        std::int64_t out_stride = op.out_channels * out_area;
        std::int64_t col_size = patch * out_area;
        std::int64_t cn = op.batch * col_size;
        std::int64_t yn = op.batch * out_stride;
        // The forward's column layout (see there).
        const std::int64_t wide_n = op.batch * out_area;
        const std::int64_t col_ld = op.wide_y ? wide_n : out_area;
        const std::int64_t col_image = op.wide_y ? out_area : col_size;
        auto& groups = GroupScratch(count);
        for (int b = 0; b < op.batch; ++b) {
          // dW += dY_b * columns_b^T, one image at a time: the beta = 1
          // chain over images is the layer path's summation order, which a
          // batch-wide dW GEMM would merge.
          for (int r = 0; r < count; ++r) {
            groups[r] = {
                Resolve(*states[r], batches[r], op.dy) + b * out_stride,
                Resolve(*states[r], batches[r], op.s0) + b * col_image,
                states[r]->bindings[j].conv->weight_param().grad.data()};
          }
          ops::GemmGrouped(false, true, op.out_channels,
                           static_cast<int>(patch),
                           static_cast<int>(out_area), 1.0f,
                           static_cast<int>(out_area),
                           static_cast<int>(col_ld), 1.0f,
                           static_cast<int>(patch), groups.data(), count);
          // db += spatial sums of dY_b
          for (int r = 0; r < count; ++r) {
            kernels::ConvBiasGradImage(
                Resolve(*states[r], batches[r], op.dy) + b * out_stride,
                states[r]->bindings[j].conv->bias_param().grad.data(),
                op.out_channels, static_cast<int>(out_area));
          }
        }
        if (op.skip_dx) break;
        // dColumns = W^T * dY, scattered back by Col2Im (which overwrites
        // each image of dx).
        if (op.wide_dx) {
          for (int r = 0; r < count; ++r) {
            float* dy_wide = ScratchSlot(kWideGemm, yn, 0, 1);
            SwapOuterDims(Resolve(*states[r], batches[r], op.dy), op.batch,
                          op.out_channels, out_area, dy_wide);
            float* dcols = ScratchSlot(kWideDCols, cn, 0, 1);
            ops::Gemm(true, false, static_cast<int>(patch),
                      static_cast<int>(wide_n), op.out_channels, 1.0f,
                      states[r]->bindings[j].conv->weight_param().value.data(),
                      static_cast<int>(patch), dy_wide,
                      static_cast<int>(wide_n), 0.0f, dcols,
                      static_cast<int>(wide_n));
            float* dx = Resolve(*states[r], batches[r], op.dx);
            for (int b = 0; b < op.batch; ++b) {
              ops::Col2Im(dcols + b * out_area, op.channels, op.height,
                          op.width, op.kernel, op.kernel, op.stride, op.pad,
                          dx + b * in_stride, wide_n);
            }
          }
          break;
        }
        for (int b = 0; b < op.batch; ++b) {
          for (int r = 0; r < count; ++r) {
            groups[r] = {
                states[r]->bindings[j].conv->weight_param().value.data(),
                Resolve(*states[r], batches[r], op.dy) + b * out_stride,
                Resolve(*states[r], batches[r], op.s1)};
          }
          ops::GemmGrouped(true, false, static_cast<int>(patch),
                           static_cast<int>(out_area), op.out_channels, 1.0f,
                           static_cast<int>(patch),
                           static_cast<int>(out_area), 0.0f,
                           static_cast<int>(out_area), groups.data(), count);
          for (int r = 0; r < count; ++r) {
            ops::Col2Im(Resolve(*states[r], batches[r], op.s1), op.channels,
                        op.height, op.width, op.kernel, op.kernel, op.stride,
                        op.pad,
                        Resolve(*states[r], batches[r], op.dx) + b * in_stride);
          }
        }
        break;
      }
      case OpKind::kRelu:
        if (op.skip_dx) break;
        for (int r = 0; r < count; ++r) {
          kernels::ReluBackward(Resolve(*states[r], batches[r], op.y),
                                Resolve(*states[r], batches[r], op.dy),
                                Resolve(*states[r], batches[r], op.dx),
                                op.numel);
        }
        break;
      case OpKind::kMaxPool: {
        if (op.skip_dx) break;
        std::int64_t yn = static_cast<std::int64_t>(op.batch) * op.channels *
                          op.out_h * op.out_w;
        std::int64_t xn = static_cast<std::int64_t>(op.batch) * op.channels *
                          op.height * op.width;
        for (int r = 0; r < count; ++r) {
          kernels::MaxPoolBackward(Resolve(*states[r], batches[r], op.dy),
                                   states[r]->argmax[op.argmax_slot].data(),
                                   yn, Resolve(*states[r], batches[r], op.dx),
                                   xn);
        }
        break;
      }
      case OpKind::kGlobalAvgPool:
        if (op.skip_dx) break;
        for (int r = 0; r < count; ++r) {
          kernels::GlobalAvgPoolBackward(
              Resolve(*states[r], batches[r], op.dy),
              Resolve(*states[r], batches[r], op.dx), op.batch, op.channels,
              op.height * op.width);
        }
        break;
      case OpKind::kGroupNorm:
        // Never skipped: dgamma/dbeta ride on the same pass.
        for (int r = 0; r < count; ++r) {
          GroupNorm* gn = states[r]->bindings[j].gn;
          kernels::GroupNormBackward(
              Resolve(*states[r], batches[r], op.dy),
              Resolve(*states[r], batches[r], op.s0),
              Resolve(*states[r], batches[r], op.s1),
              gn->gamma_param().value.data(), gn->gamma_param().grad.data(),
              gn->beta_param().grad.data(),
              Resolve(*states[r], batches[r], op.dx), op.batch, op.channels,
              op.groups, op.height * op.width);
        }
        break;
      case OpKind::kEmbedding: {
        // No input gradient (token ids are discrete) but the table gradient
        // always accumulates, exactly like the layer path.
        std::int64_t tokens = static_cast<std::int64_t>(op.batch) * op.time;
        for (int r = 0; r < count; ++r) {
          kernels::EmbeddingScatterAdd(
              states[r]->argmax[op.argmax_slot].data(), tokens,
              Resolve(*states[r], batches[r], op.dy), op.cols_out,
              states[r]->bindings[j].embedding->table_param().grad.data());
        }
        break;
      }
      case OpKind::kLstm: {
        const int B = op.batch, T = op.time, E = op.cols_in, H = op.cols_out;
        const int H4 = 4 * H;
        std::int64_t zn = static_cast<std::int64_t>(B) * H4;
        std::int64_t hn = static_cast<std::int64_t>(B) * H;
        std::int64_t en = static_cast<std::int64_t>(B) * E;
        // Replica-outer for the same locality reason as the forward pass:
        // the BPTT GEMMs are all wider than the interleave width, so the
        // grouped fast path never engages, and one replica's weights,
        // gradients, and slabs stay hot across the whole reverse sweep.
        for (int r = 0; r < count; ++r) {
          Lstm* lstm = states[r]->bindings[j].lstm;
          const float* wx = lstm->weight_x_param().value.data();
          const float* wh = lstm->weight_h_param().value.data();
          float* dwx = lstm->weight_x_param().grad.data();
          float* dwh = lstm->weight_h_param().grad.data();
          float* db = lstm->bias_param().grad.data();
          // The full input, and the full-sequence input gradient we scatter
          // into.
          const float* x = Resolve(*states[r], batches[r], op.x);
          float* gin =
              op.skip_dx ? nullptr : Resolve(*states[r], batches[r], op.dx);
          // dh_T = this op's output gradient; dc_T = 0 (step scratch,
          // ping-ponged across timesteps below).
          float* dh = ScratchSlot(kStepDh, hn, r, count);
          std::memcpy(dh, Resolve(*states[r], batches[r], op.dy),
                      static_cast<std::size_t>(hn) * sizeof(float));
          ScratchSlot(kStepDhPrev, hn, r, count);  // dh_prev buffer
          float* dc = ScratchSlot(kStepDc, hn, r, count);
          std::fill(dc, dc + hn, 0.0f);
          int dh_slot = kStepDh, dhp_slot = kStepDhPrev;
          for (int t = T - 1; t >= 0; --t) {
            Ref gate_w = Window(op.s0, static_cast<std::int64_t>(t) * zn);
            Ref cell_w = Window(op.s1, static_cast<std::int64_t>(t) * hn);
            const float* cell_prev =
                t > 0 ? Resolve(*states[r], batches[r],
                                Window(op.s1,
                                       static_cast<std::int64_t>(t - 1) * hn))
                      : nullptr;
            float* dz = ScratchSlot(kStepDz, zn, r, count);
            kernels::LstmGateBackward(
                Resolve(*states[r], batches[r], gate_w),
                Resolve(*states[r], batches[r], cell_w), cell_prev,
                ScratchSlot(dh_slot, hn, r, count),
                ScratchSlot(kStepDc, hn, r, count), dz, B, H);
            // Gather x_t for the weight gradient (pure copy).
            float* xt = ScratchSlot(kStepInput, en, r, count);
            for (int b = 0; b < B; ++b) {
              const float* src =
                  x + (static_cast<std::int64_t>(b) * T + t) * E;
              float* dst = xt + static_cast<std::int64_t>(b) * E;
              for (int d = 0; d < E; ++d) dst[d] = src[d];
            }
            // dWx += x_t^T dz
            ops::Gemm(true, false, E, H4, B, 1.0f, xt, E, dz, H4, 1.0f, dwx,
                      H4);
            // dWh += h_{t-1}^T dz (hiddens window t is h_{t-1})
            const float* h_prev =
                Resolve(*states[r], batches[r],
                        Window(op.s2, static_cast<std::int64_t>(t) * hn));
            ops::Gemm(true, false, H, H4, B, 1.0f, h_prev, H, dz, H4, 1.0f,
                      dwh, H4);
            // db += column sums of dz
            kernels::BiasGradRows(dz, db, B, H4);
            // dx_t = dz Wx^T, scattered back into [batch, time, input]
            if (!op.skip_dx) {
              float* dxt = ScratchSlot(kStepDx, en, r, count);
              ops::Gemm(false, true, B, E, H4, 1.0f, dz, H4, wx, H4, 0.0f,
                        dxt, E);
              for (int b = 0; b < B; ++b) {
                float* dst =
                    gin + (static_cast<std::int64_t>(b) * T + t) * E;
                const float* src = dxt + static_cast<std::int64_t>(b) * E;
                for (int d = 0; d < E; ++d) dst[d] = src[d];
              }
            }
            // dh_{t-1} = dz Wh^T
            ops::Gemm(false, true, B, H, H4, 1.0f, dz, H4, wh, H4, 0.0f,
                      ScratchSlot(dhp_slot, hn, r, count), H);
            std::swap(dh_slot, dhp_slot);  // buffers ping-pong; no allocation
          }
        }
        break;
      }
    }
  }
}

}  // namespace fedcross::nn::plan
