#include "simd/simd.hpp"

namespace plf::simd {

std::string backend_name() {
#if defined(PLF_SIMD_SSE) && defined(__FMA__)
  return "sse+fma";
#elif defined(PLF_SIMD_SSE)
  return "sse";
#else
  return "scalar";
#endif
}

}  // namespace plf::simd
