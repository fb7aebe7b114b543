#ifndef FEDCROSS_NN_PLAN_H_
#define FEDCROSS_NN_PLAN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "nn/sequential.h"
#include "tensor/tensor.h"

namespace fedcross::nn {

class Conv2d;
class Embedding;
class GroupNorm;
class Linear;
class Lstm;

namespace plan {

// -----------------------------------------------------------------------
// Execution plans: a Sequential model compiled, for one fixed input shape,
// into a step graph with pre-assigned offsets into a single per-replica
// arena. Most ops form a straight line (each consumes the previous op's
// output), but the graph also carries saved-branch refs — a second input
// ref (kAdd joins a residual skip branch back into the main path; branch
// gradient refs alias so the join's backward is free) — and one bounded
// per-timestep loop (kLstm walks T gate steps over arena slabs). The plan
// executor runs K same-topology replicas in lockstep, fusing each GEMM
// across replicas into one ops::GemmGrouped call. A conv step runs its
// forward and input-gradient GEMMs once over the whole mini-batch per
// replica (Op::wide_y / wide_dx) where that is bit-identical to the
// per-image calls, and otherwise fuses the per-image forward GEMMs of all
// replicas into one ops::ConvGrouped call (replica-interleaved SIMD lanes
// for small shapes).
//
// Invariant: a plan step is bit-identical to Layer::Forward / loss /
// Layer::Backward on the same replica. Two mechanisms enforce this:
//  * every GEMM goes through ops::Gemm / ops::GemmGrouped / ops::ConvGrouped,
//    whose grouped instances are bit-identical to standalone calls, and a
//    batch-wide conv GEMM runs only where ops::detail::BatchWideGemmExact
//    proves it equal to the layer path's per-image calls;
//  * every non-GEMM arithmetic loop is a shared out-of-line kernel in
//    nn/kernels.cc, called by both the layer classes and the executor, so
//    no expression can be FP-contracted differently in two TUs.
// The plan also skips work the layer path wastes: the input gradient of
// the first layer (nothing consumes it) and the copy-in/copy-out of
// elementwise layers (ops read and write arena buffers out of place).
// -----------------------------------------------------------------------

// A float-buffer reference: either the mini-batch input tensor (read-only)
// or an offset into the per-replica arena.
struct Ref {
  enum class Space : std::uint8_t { kNone, kInput, kArena };
  Space space = Space::kNone;
  std::int64_t offset = 0;
};

enum class OpKind : std::uint8_t {
  kLinear,
  kConv,
  kRelu,
  kMaxPool,
  kGlobalAvgPool,
  kGroupNorm,
  // Step-graph extensions:
  kAdd,        // y = x + x2 (residual skip join). Backward is a no-op: both
               // branch dy refs alias this op's dy, so writing dy once (by
               // the op above the join) fans out for free.
  kAccumGrad,  // backward-only: dx += dy (residual input-grad merge; the
               // second branch's input gradient folds into the first's).
               // Forward is a no-op. Emitted first in a block so it runs
               // last in the reverse-order backward sweep.
  kLstm,       // full BPTT recurrence: a bounded per-timestep loop over
               // gate GEMMs and the fused 4-gate kernel, slabs in s0/s1/s2.
  kEmbedding,  // token-id gather; ids live in an argmax slot. First layer
               // only (the layer path stops backprop at the embedding, so
               // lowering it mid-network would diverge on param grads).
};

// One compiled op. Offsets and geometry are shared by all replicas; the
// per-replica parameter pointers come from PlanState bindings.
struct Op {
  OpKind kind;
  int layer = -1;        // index into the source Sequential
  int sub = -1;          // sub-layer within a composite layer (ResidualBlock)
  bool skip_dx = false;  // input gradient provably unused: skip computing it

  Ref x, y;    // input / output activations
  Ref x2;      // second input (kAdd: the skip branch)
  Ref dx, dy;  // their gradients (dx may be kNone when skip_dx)
  Ref s0, s1;  // float scratch: conv columns+dcolumns, groupnorm
               // xhat+inv_std, lstm gates+cells
  Ref s2;      // lstm hiddens slab ((time+1) windows; window 0 is h_{-1}=0)
  int argmax_slot = -1;  // MaxPool argmax / Embedding token ids

  // kConv: run the forward (wide_y) / input-gradient (wide_dx) GEMM once
  // over all batch images instead of once per image. Set only where
  // ops::detail::BatchWideGemmExact says the bytes cannot change. wide_y
  // also lays s0 out as one [patch, batch*out_area] matrix rather than
  // `batch` dense [patch, out_area] blocks; wide_dx leaves s1 unallocated.
  bool wide_y = false, wide_dx = false;

  // Geometry (fields unused by a kind stay zero).
  std::int64_t numel = 0;             // elementwise ops
  int batch = 0;
  int cols_in = 0, cols_out = 0;      // linear; lstm input/hidden dims
  int time = 0;                       // lstm / embedding sequence length
  int vocab = 0;                      // embedding table rows
  int channels = 0, height = 0, width = 0;  // conv/pool/groupnorm input
  int out_channels = 0, out_h = 0, out_w = 0;
  int kernel = 0, stride = 0, pad = 0;
  int groups = 0;                     // groupnorm
  float eps = 0.0f;                   // groupnorm
};

// The compiled, topology-level plan. Shared (read-only) by every replica of
// one architecture at one batch geometry.
struct Program {
  std::vector<Op> ops;
  std::int64_t arena_floats = 0;           // per-replica arena size
  std::vector<std::int64_t> argmax_sizes;  // per MaxPool/Embedding slot
  Tensor::Shape input_shape;               // includes the batch dim
  std::int64_t input_floats = 0;
  int batch = 0;
  int classes = 0;    // final logits width
  Ref logits, dlogits;

  // Compiles `model` for `input_shape`. The whole model zoo lowers —
  // MLP/CNN/VGG straight lines, ResNet residual blocks (skip-branch refs),
  // LSTM heads (embedding gather + bounded timestep loop). Returns nullopt
  // for a topology the runtime has no lowering for (a mid-network
  // embedding, a layer class outside the library's set); such a model
  // trains only under --exec layers.
  static std::optional<Program> Compile(Sequential& model,
                                        const Tensor::Shape& input_shape);
};

// Per-replica executor state: the fp32 arena, MaxPool argmax / Embedding id
// slots, and borrowed layer pointers (parameters live in the model). Bind()
// reuses storage capacity, so rebinding the same program is allocation-free
// after the first call.
// Non-copyable: each state accounts its arena bytes in the process-wide
// fl.pool.arena_bytes gauge and settles up in the destructor.
struct PlanState {
  struct OpBinding {
    Linear* linear = nullptr;
    Conv2d* conv = nullptr;
    GroupNorm* gn = nullptr;
    Lstm* lstm = nullptr;
    Embedding* embedding = nullptr;
  };

  PlanState() = default;
  PlanState(const PlanState&) = delete;
  PlanState& operator=(const PlanState&) = delete;
  ~PlanState();

  const Program* program = nullptr;
  Sequential* model = nullptr;
  Tensor arena;
  std::vector<std::vector<std::int64_t>> argmax;
  std::vector<OpBinding> bindings;
  std::int64_t accounted_bytes = 0;   // this state's arena-gauge contribution

  // Binds `model`'s layers to `program`'s ops (type-checked) and sizes the
  // arena. The program must outlive this state.
  void Bind(const Program& prog, Sequential& m);
};

// One replica's mini-batch: borrowed pointers into the caller's feature
// tensor ([batch, ...] row-major) and label array (batch ints).
struct BatchRef {
  const float* features = nullptr;
  const int* labels = nullptr;
};

// Runs forward + softmax-cross-entropy + backward for `count` replicas in
// lockstep on same-shape batches. Parameter gradients accumulate (+=) into
// each replica's layers — the caller zeroes grads and applies the optimizer
// step, exactly as with the layer path. loss[i]/correct[i] receive each
// replica's mean batch loss and argmax-accuracy count. grad_scales, when
// non-null, multiplies replica i's logits gradient by grad_scales[i] before
// backprop (FedGen weights its augmentation batches this way). All states
// must be bound to `program`. Allocation-free in steady state.
void ExecuteStep(const Program& program, PlanState* const* states,
                 const BatchRef* batches, int count, float* loss,
                 int* correct, const float* grad_scales = nullptr);

namespace testing {
// Number of capacity-growth events across the executor's thread-local
// scratch (grouped-GEMM/conv instance tables, scratch slots). Warmed-up
// steady-state training must not grow scratch; the steady-state test pins
// this alongside Tensor::HeapAllocations.
std::int64_t ScratchReallocEvents();
}  // namespace testing

}  // namespace plan
}  // namespace fedcross::nn

#endif  // FEDCROSS_NN_PLAN_H_
