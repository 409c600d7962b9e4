#include "reference.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "service/session.hpp"
#include "service/simulation_service.hpp"
#include "service/transport.hpp"

namespace perfbench {

Reference serve_reference(const std::vector<std::string>& lines) {
  constexpr std::size_t kChunk = 32;
  constexpr unsigned kSessions = 4;
  Reference ref;
  ref.digests.assign(lines.size(), 0);
  edea::service::SimulationService service;
  std::atomic<std::size_t> next_chunk{0};
  const auto serve_chunks = [&] {
    for (;;) {
      const std::size_t begin = next_chunk.fetch_add(1) * kChunk;
      if (begin >= lines.size()) return;
      const std::size_t end = std::min(lines.size(), begin + kChunk);
      std::string text;
      for (std::size_t i = begin; i < end; ++i) text += lines[i] + '\n';
      std::istringstream in(text);
      std::ostringstream out;
      edea::service::StdioStream stream(in, out);
      edea::service::WorkloadCatalog catalog;
      (void)edea::service::Session(service, catalog).serve(stream);
      std::istringstream replies(out.str());
      std::string reply;
      for (std::size_t i = begin; i < end && std::getline(replies, reply);
           ++i) {
        ref.digests[i] = reply_digest(reply);
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < kSessions; ++i) threads.emplace_back(serve_chunks);
  for (std::thread& t : threads) t.join();
  ref.misses = service.cache_stats().misses;
  return ref;
}

}  // namespace perfbench
