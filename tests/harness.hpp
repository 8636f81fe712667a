// Shared test scaffolding: a two-node (client/server) network with TCP
// stacks and an optional middle relay, plus small helpers used by the TCP,
// HTTP and CDN test suites and the decoder mutation tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "net/loss_model.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "tcp/stack.hpp"

namespace dyncdn::testing {

/// Loss model that drops an exact set of packet indices (0-based count of
/// packets offered to the link). Deterministic fault injection.
class DropNth final : public net::LossModel {
 public:
  explicit DropNth(std::vector<std::uint64_t> indices)
      : indices_(std::move(indices)) {}
  bool should_drop(sim::RngStream&) override {
    const std::uint64_t i = count_++;
    for (const std::uint64_t d : indices_) {
      if (d == i) return true;
    }
    return false;
  }
  std::string describe() const override { return "drop-nth"; }

 private:
  std::vector<std::uint64_t> indices_;
  std::uint64_t count_ = 0;
};

struct TwoNodeOptions {
  sim::SimTime one_way_delay = sim::SimTime::milliseconds(10);
  double bandwidth_bps = 100e6;
  std::size_t queue_capacity = 1000;
  double loss = 0.0;          // Bernoulli, both directions
  double reordering = 0.0;    // reorder probability, both directions
  /// Extra deterministic drops applied to the server->client direction.
  std::vector<std::uint64_t> drop_indices_s2c;
  std::vector<std::uint64_t> drop_indices_c2s;
  tcp::TcpConfig tcp;
  std::uint64_t seed = 1;
};

/// client <-> server over one bidirectional link.
class TwoNodeHarness {
 public:
  explicit TwoNodeHarness(const TwoNodeOptions& opt = {})
      : simulator(opt.seed), network(simulator) {
    client_node = &network.add_node("client");
    server_node = &network.add_node("server");

    auto make_cfg = [&](const std::vector<std::uint64_t>& drops) {
      net::LinkConfig cfg;
      cfg.propagation_delay = opt.one_way_delay;
      cfg.bandwidth_bps = opt.bandwidth_bps;
      cfg.queue_capacity = opt.queue_capacity;
      cfg.reorder_probability = opt.reordering;
      const double p = opt.loss;
      if (!drops.empty()) {
        cfg.loss_factory = [drops] {
          return std::make_unique<DropNth>(drops);
        };
      } else if (p > 0.0) {
        cfg.loss_factory = [p] { return net::make_bernoulli_loss(p); };
      }
      return cfg;
    };
    network.connect(*client_node, *server_node,
                    make_cfg(opt.drop_indices_c2s),
                    make_cfg(opt.drop_indices_s2c));

    client = std::make_unique<tcp::TcpStack>(*client_node, opt.tcp);
    server = std::make_unique<tcp::TcpStack>(*server_node, opt.tcp);
  }

  sim::Simulator simulator;
  net::Network network;
  net::Node* client_node = nullptr;
  net::Node* server_node = nullptr;
  std::unique_ptr<tcp::TcpStack> client;
  std::unique_ptr<tcp::TcpStack> server;
};

/// Generates `n` printable bytes with a deterministic pattern so transfers
/// can be integrity-checked cheaply.
inline std::string pattern_text(std::size_t n) {
  std::string s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>('A' + (i * 7 + i / 26) % 26));
  }
  return s;
}

/// One to three bit flips, truncations or splices (a copied range
/// inserted elsewhere): the seeded mutator of the decoder mutation tests.
inline std::string mutate(std::string s, std::mt19937& gen) {
  const int count = 1 + static_cast<int>(gen() % 3);
  for (int m = 0; m < count && !s.empty(); ++m) {
    const auto at = [&gen](std::size_t n) {
      return std::uniform_int_distribution<std::size_t>(0, n - 1)(gen);
    };
    switch (gen() % 3) {
      case 0:
        s[at(s.size())] ^= static_cast<char>(1u << (gen() % 8));
        break;
      case 1:
        s.resize(at(s.size()));
        break;
      default: {
        const std::size_t from = at(s.size());
        const std::size_t len =
            1 + at(std::min<std::size_t>(s.size() - from, 64));
        const std::string piece = s.substr(from, len);
        s.insert(at(s.size() + 1), piece);
        break;
      }
    }
  }
  return s;
}

}  // namespace dyncdn::testing
