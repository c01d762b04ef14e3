// SIMD layer entry points: the name of the compiled-in ISA and the AVX
// upper-state reset.
#pragma once

#include <string>

#include "simd/vec4f.hpp"

namespace plf::simd {

/// Human-readable name of the ISA Vec4f compiles to ("sse+fma", "sse" or
/// "scalar"). Decided at compile time.
std::string backend_name();

/// Clears the upper halves of the 256-bit registers (vzeroupper) on AVX
/// builds. Scalar libm code such as std::log pays an SSE/AVX transition
/// penalty on every call while that state is dirty, and gcc does not clear
/// it after every VEX.256 instruction it emits (see PlfEngine::evaluate).
inline void clear_upper_vector_state() {
#if defined(__AVX__)
  _mm256_zeroupper();
#endif
}

}  // namespace plf::simd
