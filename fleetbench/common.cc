#include "common.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "host/model_codec.h"
#include "host/user_client.h"

namespace fleetbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

namespace {

using accel::ForwardOp;
using host::FuncLayer;

i8 random_int8(Xoshiro256& rng) {
  return static_cast<i8>(static_cast<int>(rng.next_below(256)) - 128);
}

Bytes int8_bytes(std::size_t n, Xoshiro256& rng) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<u8>(random_int8(rng));
  return out;
}

FuncLayer conv(int out_c, int in_c, int shift, Xoshiro256& rng) {
  return FuncLayer{ForwardOp::Kind::kConv, out_c, 3, 1, 1, shift,
                   int8_bytes(static_cast<std::size_t>(out_c) * in_c * 9, rng)};
}
FuncLayer fc(int out, int in, int shift, Xoshiro256& rng) {
  return FuncLayer{ForwardOp::Kind::kFc, out, 0, 1, 0, shift,
                   int8_bytes(static_cast<std::size_t>(out) * in, rng)};
}
FuncLayer relu() {
  return FuncLayer{ForwardOp::Kind::kRelu, 0, 0, 1, 0, 0, {}};
}
FuncLayer maxpool2() {
  return FuncLayer{ForwardOp::Kind::kMaxPool, 0, 2, 2, 0, 0, {}};
}

host::FuncNetwork network(ModelKind kind, Xoshiro256& rng) {
  host::FuncNetwork net;
  switch (kind) {
    case ModelKind::kTiny:  // the serving benches' bench_net: 1.5 KiB weights
      net.in_c = 3;
      net.in_h = net.in_w = 8;
      net.layers = {conv(4, 3, 4, rng), relu(), maxpool2(), fc(10, 64, 5, rng)};
      break;
    case ModelKind::kCnn:  // 3x32x32, two 16-channel convs, ~260 KiB weights
      net.in_c = 3;
      net.in_h = net.in_w = 32;
      net.layers = {conv(16, 3, 4, rng), relu(), conv(16, 16, 6, rng), relu(),
                    maxpool2(), fc(64, 16 * 16 * 16, 9, rng), relu(),
                    fc(10, 64, 5, rng)};
      break;
    case ModelKind::kFc8m:  // one 8192 -> 1024 layer: 8 MiB of weights
      net.in_c = 8;
      net.in_h = net.in_w = 32;
      net.layers = {fc(1024, 8 * 32 * 32, 10, rng)};
      break;
  }
  return net;
}

}  // namespace

Model make_model(ModelKind kind, u64 seed, std::size_t n_inputs) {
  Xoshiro256 rng(seed ^ (0x9e37ull * (static_cast<u64>(kind) + 1)));
  Model model;
  model.net = network(kind, rng);
  model.descriptor = host::serialize_descriptor(model.net);
  for (std::size_t i = 0; i < n_inputs; ++i) {
    functional::Tensor input(model.net.in_c, model.net.in_h, model.net.in_w,
                             model.net.bits);
    for (auto& v : input.data()) v = random_int8(rng);
    model.inputs.emplace_back(input.bytes().begin(), input.bytes().end());
    model.expected.push_back(host::reference_run(model.net, input));
  }
  return model;
}

World::World(u64 run_seed)
    : seed(run_seed), ca_drbg(entropy(kCaStream, 0)), ca(ca_drbg) {}

u64 World::sub_seed(u64 stream, u64 index) const {
  u64 state = seed ^ (stream << 48) ^ (index * 0x2545f4914f6cdd1dull);
  return splitmix64(state);
}

Bytes World::entropy(u64 stream, u64 index) const {
  Xoshiro256 rng(sub_seed(stream, index));
  Bytes out(16);
  rng.fill(out);
  return out;
}

bool connect_client(serving::InferenceServer& server, const World& world,
                    u64 stream, u64 index, Client& client) {
  client.user = std::make_unique<host::RemoteUser>(
      world.ca.public_key(), world.entropy(stream, index));
  const auto connected = server.connect(client.user->begin_session(),
                                        /*integrity=*/true);
  if (connected.tenant == 0 ||
      !client.user->attest_device(server.get_pk(connected.device_index)) ||
      !client.user->complete_session(connected.response))
    return false;
  client.tenant = connected.tenant;
  client.device = connected.device_index;
  return true;
}

bool output_matches(host::RemoteUser& user,
                    const serving::InferenceResult& result,
                    const Bytes& expected) {
  if (result.outcome != serving::RequestOutcome::kOk) return false;
  const auto output = user.open_output(result.sealed_output);
  return output && *output == expected;
}

}  // namespace fleetbench
