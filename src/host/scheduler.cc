#include "host/scheduler.h"

#include <stdexcept>

#include "host/user_client.h"

namespace guardnn::host {
namespace {

constexpr u64 kChunk = accel::MemoryProtectionUnit::kChunkBytes;
constexpr u64 kWeightBase = 0x0000'0000ULL;
constexpr u64 kInputBase = 0x4000'0000ULL;
constexpr u64 kFeatureBase = 0x4800'0000ULL;
constexpr u64 kFeatureStride = 0x80'0000ULL;  // 8 MiB per layer output

u64 pad_chunk(u64 bytes) { return (bytes + kChunk - 1) / kChunk * kChunk; }

int out_dim(int in, int kernel, int stride, int pad) {
  const int out = (in + 2 * pad - kernel) / stride + 1;
  if (out <= 0) throw std::invalid_argument("scheduler: non-positive output dim");
  return out;
}

}  // namespace

std::vector<std::array<int, 3>> infer_shapes(const FuncNetwork& net) {
  std::vector<std::array<int, 3>> shapes;
  shapes.push_back({net.in_c, net.in_h, net.in_w});
  int c = net.in_c, h = net.in_h, w = net.in_w;
  for (const auto& layer : net.layers) {
    switch (layer.kind) {
      case accel::ForwardOp::Kind::kConv:
        h = out_dim(h, layer.kernel, layer.stride, layer.pad);
        w = out_dim(w, layer.kernel, layer.stride, layer.pad);
        c = layer.out_c;
        break;
      case accel::ForwardOp::Kind::kDepthwiseConv:
        h = out_dim(h, layer.kernel, layer.stride, layer.pad);
        w = out_dim(w, layer.kernel, layer.stride, layer.pad);
        break;
      case accel::ForwardOp::Kind::kAdd:
        break;  // shape-preserving
      case accel::ForwardOp::Kind::kFc:
        c = layer.out_c;
        h = 1;
        w = 1;
        break;
      case accel::ForwardOp::Kind::kRelu:
        break;
      case accel::ForwardOp::Kind::kMaxPool:
        h = out_dim(h, layer.kernel, layer.stride, 0);
        w = out_dim(w, layer.kernel, layer.stride, 0);
        break;
      case accel::ForwardOp::Kind::kGlobalAvgPool:
        h = 1;
        w = 1;
        break;
      default:
        // FuncNetwork layers are forward ops; training ops have no static
        // shape rule here.
        throw std::invalid_argument("infer_shapes: unsupported layer kind");
    }
    shapes.push_back({c, h, w});
  }
  return shapes;
}

ExecutionPlan HostScheduler::compile(const FuncNetwork& net) {
  ExecutionPlan plan;
  plan.weight_base = kWeightBase;
  plan.input_addr = kInputBase;

  const auto shapes = infer_shapes(net);

  // Pack weights, 512 B aligned per layer, into one blob the user imports
  // with a single SetWeight (one weight VN covers the whole model — weights
  // are read-only during inference, Section II-D.2).
  u64 offset = 0;
  for (const auto& layer : net.layers) {
    plan.weight_addrs.push_back(kWeightBase + offset);
    if (!layer.weights.empty()) {
      // Append then pad to the chunk boundary (the blob is always exactly
      // `offset` bytes long here).
      const std::size_t padded = pad_chunk(layer.weights.size());
      plan.weight_blob.insert(plan.weight_blob.end(), layer.weights.begin(),
                              layer.weights.end());
      plan.weight_blob.insert(plan.weight_blob.end(),
                              padded - layer.weights.size(), 0);
      offset += padded;
    }
  }
  if (plan.weight_blob.empty()) plan.weight_blob.resize(kChunk, 0);

  // Instruction stream: every layer output gets its own buffer so residual
  // adds can reference any earlier tensor (tensor -1 = the imported input).
  auto buffer_of = [&](int tensor_index) {
    return tensor_index < 0
               ? kInputBase
               : kFeatureBase + static_cast<u64>(tensor_index) * kFeatureStride;
  };
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const FuncLayer& layer = net.layers[i];
    const auto& in_shape = shapes[i];
    accel::ForwardOp op;
    op.kind = layer.kind;
    op.in_c = in_shape[0];
    op.in_h = in_shape[1];
    op.in_w = in_shape[2];
    op.out_c = layer.out_c;
    op.kernel = layer.kernel;
    op.stride = layer.stride;
    op.pad = layer.pad;
    op.requant_shift = layer.requant_shift;
    op.bits = net.bits;
    op.input_addr = buffer_of(static_cast<int>(i) - 1);
    if (layer.kind == accel::ForwardOp::Kind::kAdd) {
      if (layer.input2_layer < -1 ||
          layer.input2_layer >= static_cast<int>(i))
        throw std::invalid_argument("compile: kAdd input2_layer out of range");
      op.input2_addr = buffer_of(layer.input2_layer);
    }
    op.weight_addr = plan.weight_addrs[i];
    op.output_addr = buffer_of(static_cast<int>(i));
    plan.ops.push_back(op);
  }

  const auto& out_shape = shapes.back();
  plan.output_bytes = static_cast<u64>(out_shape[0]) * out_shape[1] * out_shape[2];
  plan.output_addr = plan.ops.empty()
                         ? kInputBase
                         : plan.ops.back().output_addr;
  return plan;
}

accel::DeviceStatus HostScheduler::execute(const ExecutionPlan& plan) {
  auto set_read_ctr = [&](u64 base, u64 bytes, u64 vn) {
    return device_.set_read_ctr(session_, base, bytes, vn);
  };
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const accel::ForwardOp& op = plan.ops[i];
    const u64 in_bytes = pad_chunk(op.input_bytes());
    accel::DeviceStatus status =
        set_read_ctr(op.input_addr, in_bytes, read_vn_for(i));
    if (status != accel::DeviceStatus::kOk) return status;
    if (op.kind == accel::ForwardOp::Kind::kAdd) {
      // Second operand: written by the referenced earlier layer (or SetInput);
      // reconstruct that tensor's write counter from the schedule.
      const u64 tensor_index =
          op.input2_addr == kInputBase
              ? 0
              : (op.input2_addr - kFeatureBase) / kFeatureStride + 1;
      const u64 vn = (ctr_in_mirror_ << 32) |
                     (tensor_index == 0 ? 0 : tensor_index - 1);
      status = set_read_ctr(op.input2_addr, in_bytes, vn);
      if (status != accel::DeviceStatus::kOk) return status;
    }
    status = device_.forward(session_, op);
    if (status != accel::DeviceStatus::kOk) return status;
  }
  // Arm the read counter for ExportOutput.
  if (!plan.ops.empty()) {
    return set_read_ctr(plan.output_addr, pad_chunk(plan.output_bytes),
                        output_read_vn(plan.ops.size()));
  }
  return accel::DeviceStatus::kOk;
}

Bytes reference_run(const FuncNetwork& net, const functional::Tensor& input) {
  using functional::ConvWeights;
  using functional::FcWeights;
  using functional::Tensor;

  Tensor current = input;
  std::vector<Tensor> intermediates;
  intermediates.reserve(net.layers.size());
  std::vector<i8> fc_out;
  bool is_fc = false;

  for (const auto& layer : net.layers) {
    switch (layer.kind) {
      case accel::ForwardOp::Kind::kConv: {
        ConvWeights weights(layer.out_c, current.channels(), layer.kernel, net.bits);
        if (layer.weights.size() != weights.data.size())
          throw std::invalid_argument("reference_run: conv weight size mismatch");
        std::copy(layer.weights.begin(), layer.weights.end(),
                  reinterpret_cast<u8*>(weights.data.data()));
        current = functional::conv2d_direct(current, weights, layer.stride,
                                            layer.pad, layer.requant_shift);
        break;
      }
      case accel::ForwardOp::Kind::kFc: {
        const int in_features =
            current.channels() * current.height() * current.width();
        FcWeights weights(layer.out_c, in_features, net.bits);
        if (layer.weights.size() != weights.data.size())
          throw std::invalid_argument("reference_run: fc weight size mismatch");
        std::copy(layer.weights.begin(), layer.weights.end(),
                  reinterpret_cast<u8*>(weights.data.data()));
        std::vector<i8> flat(current.data().begin(), current.data().end());
        fc_out = functional::fully_connected(flat, weights, layer.requant_shift,
                                             net.bits);
        is_fc = true;
        // Re-materialize as a 1x1 tensor stack for possible further layers.
        current = Tensor(layer.out_c, 1, 1, net.bits);
        std::copy(fc_out.begin(), fc_out.end(), current.data().begin());
        break;
      }
      case accel::ForwardOp::Kind::kRelu:
        functional::relu(current);
        break;
      case accel::ForwardOp::Kind::kMaxPool:
        current = functional::maxpool2d(current, layer.kernel, layer.stride);
        break;
      case accel::ForwardOp::Kind::kGlobalAvgPool:
        current = functional::global_avgpool(current);
        break;
      case accel::ForwardOp::Kind::kDepthwiseConv: {
        ConvWeights weights(current.channels(), 1, layer.kernel, net.bits);
        if (layer.weights.size() != weights.data.size())
          throw std::invalid_argument("reference_run: dw weight size mismatch");
        std::copy(layer.weights.begin(), layer.weights.end(),
                  reinterpret_cast<u8*>(weights.data.data()));
        current = functional::depthwise_conv2d(current, weights, layer.stride,
                                               layer.pad, layer.requant_shift);
        break;
      }
      case accel::ForwardOp::Kind::kAdd: {
        const int idx = layer.input2_layer;
        const Tensor& second = idx < 0 ? input : intermediates[static_cast<std::size_t>(idx)];
        current = functional::tensor_add(current, second);
        break;
      }
      default:
        throw std::invalid_argument("reference_run: unsupported layer kind");
    }
    intermediates.push_back(current);
  }
  (void)is_fc;
  return Bytes(reinterpret_cast<const u8*>(current.data().data()),
               reinterpret_cast<const u8*>(current.data().data()) +
                   current.size());
}

void mirror_attestation(RemoteUser& user, const ExecutionPlan& plan) {
  u8 addr_bytes[8];
  store_be64(addr_bytes, plan.weight_base);
  user.expect_instruction(accel::Opcode::kSetWeight, BytesView(addr_bytes, 8));
  store_be64(addr_bytes, plan.input_addr);
  user.expect_instruction(accel::Opcode::kSetInput, BytesView(addr_bytes, 8));
  for (const auto& op : plan.ops)
    user.expect_instruction(accel::Opcode::kForward, op.serialize());
  u8 operand[16];
  store_be64(operand, plan.output_addr);
  store_be64(operand + 8, plan.output_bytes);
  user.expect_instruction(accel::Opcode::kExportOutput, BytesView(operand, 16));
}

}  // namespace guardnn::host
