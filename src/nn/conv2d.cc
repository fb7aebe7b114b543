#include "nn/conv2d.h"

#include "nn/init.h"
#include "nn/kernels.h"
#include "tensor/tensor_ops.h"

namespace fedcross::nn {

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int pad, util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(KaimingNormal({out_channels, in_channels * kernel * kernel},
                            in_channels * kernel * kernel, rng)),
      bias_(Tensor::Zeros({out_channels})) {
  FC_CHECK_GT(in_channels, 0);
  FC_CHECK_GT(out_channels, 0);
  FC_CHECK_GT(kernel, 0);
}

const Tensor& Conv2d::Forward(const Tensor& input) {
  FC_CHECK_EQ(input.ndim(), 4);
  FC_CHECK_EQ(input.dim(1), in_channels_);
  int batch = input.dim(0);
  int height = input.dim(2);
  int width = input.dim(3);
  int out_h = ops::ConvOutSize(height, kernel_, stride_, pad_);
  int out_w = ops::ConvOutSize(width, kernel_, stride_, pad_);
  int out_area = out_h * out_w;
  int patch = in_channels_ * kernel_ * kernel_;

  cached_height_ = height;
  cached_width_ = width;
  // Reuse the im2col scratch across Forward calls: every element is
  // overwritten by Im2Col, so stale contents are harmless, and steady-state
  // training (fixed batch geometry) never reallocates.
  if (static_cast<int>(cached_columns_.size()) != batch) {
    cached_columns_.resize(batch);
  }

  output_.ResizeTo({batch, out_channels_, out_h, out_w});
  std::int64_t in_stride = static_cast<std::int64_t>(in_channels_) * height * width;
  std::int64_t out_stride = static_cast<std::int64_t>(out_channels_) * out_area;
  for (int b = 0; b < batch; ++b) {
    Tensor& columns = cached_columns_[b];
    if (columns.ndim() != 2 || columns.dim(0) != patch ||
        columns.dim(1) != out_area) {
      columns = Tensor({patch, out_area});
    }
    ops::Im2Col(input.data() + b * in_stride, in_channels_, height, width,
                kernel_, kernel_, stride_, pad_, columns.data());
    // output_b = W(out_channels, patch) * columns(patch, out_area)
    ops::Gemm(false, false, out_channels_, out_area, patch, 1.0f,
              weight_.value.data(), patch, columns.data(), out_area, 0.0f,
              output_.data() + b * out_stride, out_area);
  }
  kernels::ConvBiasAdd(output_.data(), bias_.value.data(), batch,
                       out_channels_, out_area);
  return output_;
}

const Tensor& Conv2d::Backward(const Tensor& grad_output) {
  FC_CHECK_EQ(grad_output.ndim(), 4);
  int batch = grad_output.dim(0);
  FC_CHECK_EQ(batch, static_cast<int>(cached_columns_.size()));
  FC_CHECK_EQ(grad_output.dim(1), out_channels_);
  int out_h = grad_output.dim(2);
  int out_w = grad_output.dim(3);
  int out_area = out_h * out_w;
  int patch = in_channels_ * kernel_ * kernel_;

  // Col2Im below overwrites every image of grad_input_.
  grad_input_.ResizeTo({batch, in_channels_, cached_height_, cached_width_});
  // Same scratch-reuse as Forward: the dColumns GEMM runs with beta = 0, so
  // the buffer is fully overwritten each iteration.
  if (grad_columns_.ndim() != 2 || grad_columns_.dim(0) != patch ||
      grad_columns_.dim(1) != out_area) {
    grad_columns_ = Tensor({patch, out_area});
  }
  Tensor& grad_columns = grad_columns_;
  std::int64_t in_stride =
      static_cast<std::int64_t>(in_channels_) * cached_height_ * cached_width_;
  std::int64_t out_stride = static_cast<std::int64_t>(out_channels_) * out_area;

  float* bias_grad = bias_.grad.data();
  for (int b = 0; b < batch; ++b) {
    const float* grad_b = grad_output.data() + b * out_stride;
    // dW += dY_b(out_channels, out_area) * columns_b^T(out_area, patch)
    ops::Gemm(false, true, out_channels_, patch, out_area, 1.0f, grad_b,
              out_area, cached_columns_[b].data(), out_area, 1.0f,
              weight_.grad.data(), patch);
    // db += spatial sums of dY_b
    kernels::ConvBiasGradImage(grad_b, bias_grad, out_channels_, out_area);
    // dColumns = W^T(patch, out_channels) * dY_b(out_channels, out_area)
    ops::Gemm(true, false, patch, out_area, out_channels_, 1.0f,
              weight_.value.data(), patch, grad_b, out_area, 0.0f,
              grad_columns.data(), out_area);
    ops::Col2Im(grad_columns.data(), in_channels_, cached_height_,
                cached_width_, kernel_, kernel_, stride_, pad_,
                grad_input_.data() + b * in_stride);
  }
  return grad_input_;
}

void Conv2d::CollectParams(std::vector<Param*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

}  // namespace fedcross::nn
