#include "accel/simd.h"

#include <cstdlib>
#include <cstring>

#include "common/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HILOS_SIMD_X86 1
#else
#define HILOS_SIMD_X86 0
#endif

namespace hilos {

namespace {

bool
cpuHasAvx2F16c()
{
#if HILOS_SIMD_X86
    return __builtin_cpu_supports("avx2") != 0 &&
           __builtin_cpu_supports("f16c") != 0;
#else
    return false;
#endif
}

SimdLevel
detectSimdLevel()
{
    const char *env = std::getenv("HILOS_SIMD");
    if (env != nullptr && std::strcmp(env, "scalar") == 0)
        return SimdLevel::Scalar;
    if (env != nullptr && std::strcmp(env, "avx2") == 0) {
        HILOS_ASSERT(cpuHasAvx2F16c(),
                     "HILOS_SIMD=avx2 but the CPU lacks AVX2/F16C");
        return SimdLevel::Avx2;
    }
    HILOS_ASSERT(env == nullptr || env[0] == '\0',
                 "unknown HILOS_SIMD value: ", env,
                 " (expected 'scalar' or 'avx2')");
    return cpuHasAvx2F16c() ? SimdLevel::Avx2 : SimdLevel::Scalar;
}

SimdLevel &
activeLevelRef()
{
    static SimdLevel level = detectSimdLevel();
    return level;
}

}  // namespace

const char *
simdLevelName(SimdLevel level)
{
    return level == SimdLevel::Avx2 ? "avx2" : "scalar";
}

bool
simdLevelSupported(SimdLevel level)
{
    return level == SimdLevel::Scalar || cpuHasAvx2F16c();
}

SimdLevel
activeSimdLevel()
{
    return activeLevelRef();
}

void
setSimdLevel(SimdLevel level)
{
    HILOS_ASSERT(simdLevelSupported(level), "SIMD level ",
                 simdLevelName(level), " is not supported on this CPU");
    activeLevelRef() = level;
}

}  // namespace hilos
