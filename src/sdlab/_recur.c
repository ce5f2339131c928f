/* The four loops of _kernels in C: the double-loop recursion of
   _kernels._recur, the trajectory row formatter of _kernels._format_rows,
   the "valid" correlation of one reconstruction phase, summed in the
   order of OpenBLAS's SkylakeX ddot with explicit fused multiply-adds,
   and the escape loop of _kernels._escapes, which counts or records the
   sampled points that one region step moves out of the region.

   sdlab_recur is a line-for-line port: the same operations in the same
   order, so with -ffp-contract=off (no fused multiply-add) every state is
   bit-identical to the Python reference.  The quantizer is q = 0 on
   -tau < s < tau, else 1 if s >= 0, else -1, so tau = 0 gives two levels.
   The input is the keyed stream below if key != NULL, else the array f if
   f != NULL, else beta.  Unless q_out is NULL, steps go into the long long
   q_out and the doubles u_out, v_out; f and these hold n_steps values.

   Returns the 0-based step at which |u| > ubound or |v| > vbound (a NaN
   state fails the same test), or -1 if all n_steps stayed bounded, and
   stores the largest |v| seen up to and including that step in *vmax_out.

   The keyed stream is numpy's default_rng(key).uniform(-beta, beta, n),
   drawn one value per step inside the loop, bit for bit:
   - The key's n_key uint32 words: each non-negative int of the key in
     little-endian 32-bit words, 0 as one zero word.
   - SeedSequence, all arithmetic in uint32:
       hashmix(x): x ^= h; h *= 0x931e8875; x *= h; x ^ (x >> 16),
                   one h, starting at 0x43b0d7e5;
       mix(x, y):  r = 0xca01f9dd x - 0x4973f715 y; r ^ (r >> 16).
     A pool of 4 words takes hashmix of the first 4 key words (0 when
     missing); then pool[d] = mix(pool[d], hashmix(pool[s])) for every
     s != d, s outer; then each remaining key word w, in order, gives
     pool[d] = mix(pool[d], hashmix(w)) for d = 0..3.  The 8 state words
     are, for i = 0..7, x = pool[i & 3] ^ hb; hb *= 0x58f38ded; x *= hb;
     w[i] = x ^ (x >> 16), with hb starting at 0x8b51f9dd.  They pair
     into 64-bit v[k] = w[2k] | w[2k+1] << 32.
   - PCG64 seeding, in 128 bits: seed = v0:v1 (v0 high), inc = (v2:v3 << 1)
     | 1 and state = (inc + seed) M + inc, M = 2549297995355413924 2^64 +
     4865540595714422341.  Each draw steps state = state M + inc first,
     then outputs x = rotr64(hi ^ lo, state >> 122).
   - f_i = -beta + (beta - (-beta)) ((x >> 11) 2^-53), Generator.uniform's
     low + range * next_double.
   The 128-bit arithmetic, here and in the formatter, needs unsigned
   __int128, which every 64-bit gcc target has; without it the build
   fails and _kernels runs its Python loops.
*/
#ifndef __SIZEOF_INT128__
#error "_recur.c needs unsigned __int128"
#endif

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

typedef unsigned __int128 u128;

#define PCG_MULT ((u128)2549297995355413924ULL << 64 | 4865540595714422341ULL)

static uint32_t hashmix(uint32_t x, uint32_t *h)
{
    x ^= *h;
    *h *= 0x931e8875u;
    x *= *h;
    return x ^ (x >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = 0xca01f9ddu * x - 0x4973f715u * y;
    return r ^ (r >> 16);
}

static void pcg64_seed(const uint32_t *key, long long n_key, u128 *state,
                       u128 *inc)
{
    uint32_t pool[4], h = 0x43b0d7e5u, hb = 0x8b51f9ddu;
    uint64_t v[4] = {0, 0, 0, 0};
    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(i < n_key ? key[i] : 0u, &h);
    for (int s = 0; s < 4; s++)
        for (int d = 0; d < 4; d++)
            if (s != d)
                pool[d] = mix(pool[d], hashmix(pool[s], &h));
    for (long long s = 4; s < n_key; s++)
        for (int d = 0; d < 4; d++)
            pool[d] = mix(pool[d], hashmix(key[s], &h));
    for (int i = 0; i < 8; i++) {
        uint32_t x = pool[i & 3] ^ hb;
        hb *= 0x58f38dedu;
        x *= hb;
        v[i >> 1] |= (uint64_t)(x ^ (x >> 16)) << (32 * (i & 1));
    }
    *inc = ((u128)v[2] << 64 | v[3]) << 1 | 1u;
    *state = (*inc + ((u128)v[0] << 64 | v[1])) * PCG_MULT + *inc;
}

static uint64_t pcg64_next(u128 *state, u128 inc)
{
    *state = *state * PCG_MULT + inc;
    uint64_t x = (uint64_t)(*state >> 64) ^ (uint64_t)*state;
    unsigned r = (unsigned)(*state >> 122);
    return x >> r | x << (-r & 63);
}

enum { INPUT_CONST, INPUT_ARRAY, INPUT_KEYED };

/* The one recursion loop.  sdlab_recur instantiates it once per input
   mode, so each copy reads its input as a loop constant, a load or a draw
   without testing the mode on every step; gcc then schedules the constant
   mode's loop about twice as fast as one loop that tests the mode. */
static inline __attribute__((always_inline)) long long
recur(int mode, double lam1, double lam2, double gamma, double tau,
      const double *f, double beta, const uint32_t *key, long long n_key,
      long long n_steps, double ubound, double vbound, long long *q_out,
      double *u_out, double *v_out, double *vmax_out)
{
    int trilevel = tau > 0.0;   /* loop-invariant: no band test at tau 0 */
    double u = 0.0, v = 0.0, vmax = 0.0;
    double low = -beta, range = beta - low;
    u128 state = 0, inc = 0;
    if (mode == INPUT_KEYED)
        pcg64_seed(key, n_key, &state, &inc);
    for (long long i = 0; i < n_steps; i++) {
        double s = u + gamma * v;
        double q;
        if (trilevel && (-tau < s && s < tau))
            q = 0.0;
        else if (s >= 0.0)
            q = 1.0;
        else
            q = -1.0;
        double x = mode == INPUT_ARRAY ? f[i] : beta;
        if (mode == INPUT_KEYED)
            x = low + range * ((double)(pcg64_next(&state, inc) >> 11) * 0x1p-53);
        double w = lam1 * u + (x - q);
        v = w + lam2 * v;
        u = w;
        if (q_out != NULL) {
            q_out[i] = (long long)q;
            u_out[i] = u;
            v_out[i] = v;
        }
        double av = fabs(v);
        if (av > vmax)
            vmax = av;
        if (!(av <= vbound && fabs(u) <= ubound)) {
            *vmax_out = vmax;
            return i;
        }
    }
    *vmax_out = vmax;
    return -1;
}

long long sdlab_recur(double lam1, double lam2, double gamma, double tau,
                      const double *f, double beta, const uint32_t *key,
                      long long n_key, long long n_steps, double ubound,
                      double vbound, long long *q_out, double *u_out,
                      double *v_out, double *vmax_out)
{
#define RECUR(mode) recur(mode, lam1, lam2, gamma, tau, f, beta, key, n_key, \
                          n_steps, ubound, vbound, q_out, u_out, v_out,     \
                          vmax_out)
    if (key != NULL)
        return RECUR(INPUT_KEYED);
    if (f != NULL)
        return RECUR(INPUT_ARRAY);
    return RECUR(INPUT_CONST);
#undef RECUR
}

/* Trajectory rows n0+1 .. n0+count as "%lld,%.17g,%lld,%.17g,%.17g\n", the
   text Python's % operator gives for (n, f, q, u, v), except that a NaN
   prints as "nan" whatever its sign bit (glibc would print "-nan").

   Normal doubles with 1e-16 <= |x| < 1e17 are printed without snprintf:
   with |x| = m 2^e and X = floor(log10 |x|), the 17 significant digits are
   D = m 5^k 2^(e+k), k = 16 - X, rounded half to even in 128-bit integers,
   the exact %.17g rounding.  One multiply by a tabled 5^k gives m 5^k
   (m 5^32 < 2^128).  When the first guess at X is one too low, the
   18-digit integer part is divided by 10 and rounded with the same
   remainder, so there is no second pass.  Digits print two at a time
   from a table.
   snprintf is only the fallback: for zero, subnormals, infinities and the
   rest of the range.

   The number writers copy fixed-size blocks that may run past their text,
   so a row needs ROW_MAX bytes of room (its text is at most 117).  Rows go
   straight into buf while that much is left, and through a row on the
   stack near its end, so the output is exactly the rows, with no
   terminating NUL.  Returns the number of bytes written, or -1 if the
   rows do not fit in cap bytes.
*/
enum { ROW_MAX = 160 };

static const char pairs[201] =
    "000102030405060708091011121314151617181920212223242526272829"
    "303132333435363738394041424344454647484950515253545556575859"
    "606162636465666768697071727374757677787980818283848586878889"
    "90919293949596979899";

/* n in decimal; writes 21 bytes at p whatever its length */
static char *put_int(char *p, long long n)
{
    char tmp[40], *t = tmp + 20;
    unsigned long long a = n < 0 ? 0ULL - (unsigned long long)n
                                 : (unsigned long long)n;
    for (; a >= 100; a /= 100)
        memcpy(t -= 2, pairs + 2 * (a % 100), 2);
    if (a >= 10)
        memcpy(t -= 2, pairs + 2 * a, 2);
    else
        *--t = (char)('0' + a);
    *p = '-';
    p += n < 0;
    memcpy(p, t, 20);
    return p + (tmp + 20 - t);
}

static const u128 pow5[33] = {1, 5, 25, 125, 625, 3125, 15625, 78125, 390625,
    1953125, 9765625, 48828125, 244140625, 1220703125, 6103515625ULL,
    30517578125ULL, 152587890625ULL, 762939453125ULL, 3814697265625ULL,
    19073486328125ULL, 95367431640625ULL, 476837158203125ULL,
    2384185791015625ULL, 11920928955078125ULL, 59604644775390625ULL,
    298023223876953125ULL, 1490116119384765625ULL, 7450580596923828125ULL,
    (u128)7450580596923828125ULL * 5, (u128)7450580596923828125ULL * 25,
    (u128)7450580596923828125ULL * 125, (u128)7450580596923828125ULL * 625,
    (u128)7450580596923828125ULL * 3125};

/* |x| = d 10^(X-16) rounded to 17 digits, 10^16 <= d < 10^17; 0 when x is
   outside the fast range */
static int digits17(double x, uint64_t *d, int *X)
{
    const uint64_t e16 = 10000000000000000ULL, e17 = 10 * e16;
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int be = (int)(bits >> 52 & 0x7ff);
    /* floor((be - 1023) log10 2): X itself or X - 1, and far out of range
       for zero, subnormals, infinities and NaNs */
    int x10 = ((be - 1023) * 78913) >> 18;
    if (x10 < -16 || x10 > 16)
        return 0;
    uint64_t m = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
    int k = 16 - x10, s = 1075 - be - k;        /* x 10^k = P / 2^s */
    u128 P = (u128)m * pow5[k], r = 0, half = 1;
    if (s <= 0) {
        P <<= -s;
    } else {                    /* P and the remainder r / 2^s */
        half <<= s - 1;
        r = P & (2 * half - 1);
        P >>= s;
    }
    uint64_t D = (uint64_t)P;
    if (P < e17) {                              /* X = x10 */
        D += r > half || (r == half && (D & 1));
        *d = D == e17 ? e16 : D;
        *X = x10 + (D == e17);
        return D >= e16;
    }
    if (P >= 10 * (u128)e17 || x10 == 16)      /* never, or |x| >= 1e17 */
        return 0;
    uint64_t a = D / 10, b = D % 10;            /* X = x10 + 1 */
    *d = a + (b > 5 || (b == 5 && (r != 0 || (a & 1))));
    *X = x10 + 1;
    return 1;
}

/* d 10^(X-16) in %.17g form: fixed when -4 <= X < 17, trailing zeros cut;
   writes up to 34 bytes at p */
static char *put_digits(char *p, uint64_t d, int X)
{
    char dig[40];
    uint32_t hi = (uint32_t)(d / 100000000), lo = (uint32_t)(d % 100000000);
    dig[0] = (char)('0' + hi / 100000000);
    hi %= 100000000;
    for (int i = 0; i < 4; i++) {       /* dig[1..9) from hi, dig[9..17) lo */
        memcpy(dig + 7 - 2 * i, pairs + 2 * (hi % 100), 2);
        memcpy(dig + 15 - 2 * i, pairs + 2 * (lo % 100), 2);
        hi /= 100;
        lo /= 100;
    }
    int n = 17;
    while (dig[n - 1] == '0')
        n--;
    if (X >= 0 && X < 17) {               /* integer digits, zeros kept */
        int lead = X + 1;
        memcpy(p, dig, 17);
        memcpy(p + lead + 1, dig + lead, 16);
        p[lead] = '.';
        return p + (n > lead ? n + 1 : lead);
    }
    if (X < 0 && X >= -4) {               /* 0.000ddd */
        memcpy(p, "0.0000", 6);
        p += 1 - X;
        memcpy(p, dig, 17);
        return p + n;
    }
    p[0] = dig[0];                        /* d.ddde+XX, |X| <= 17 here */
    p[1] = '.';
    memcpy(p + 2, dig + 1, 16);
    p += n > 1 ? n + 1 : 1;
    *p++ = 'e';
    *p++ = X < 0 ? '-' : '+';
    memcpy(p, pairs + 2 * (X < 0 ? -X : X), 2);
    return p + 2;
}

static char *put_num(char *p, double x)
{
    if (isnan(x)) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    uint64_t d;
    int X;
    if (digits17(x, &d, &X)) {
        *p = '-';
        return put_digits(p + (x < 0), d, X);
    }
    return p + snprintf(p, 32, "%.17g", x);
}

static char *put_row(char *p, long long n, double f, long long q, double u,
                     double v)
{
    p = put_int(p, n);
    *p++ = ',';
    p = put_num(p, f);
    *p++ = ',';
    p = put_int(p, q);
    *p++ = ',';
    p = put_num(p, u);
    *p++ = ',';
    p = put_num(p, v);
    *p++ = '\n';
    return p;
}

long long sdlab_format_rows(long long n0, const double *f, const long long *q,
                            const double *u, const double *v, long long count,
                            char *buf, long long cap)
{
    char row[ROW_MAX], *p = buf, *end = buf + cap;
    for (long long i = 0; i < count; i++) {
        if (end - p >= ROW_MAX) {
            p = put_row(p, n0 + i + 1, f[i], q[i], u[i], v[i]);
        } else {
            long long k = put_row(row, n0 + i + 1, f[i], q[i], u[i], v[i]) - row;
            if (k > end - p)
                return -1;
            memcpy(p, row, (size_t)k);
            p += k;
        }
    }
    return p - buf;
}

/* One phase's "valid" correlation, bit for bit what np.correlate (and so
   _kernels._valid_convolve) gives with numpy's OpenBLAS 0.3.31 on its
   SkylakeX kernels, one thread: out[j * ostride] sums, left to right,
   0.0 + dot(taps[a..b), values[start + j + a..)) over the tap pieces
   [0, split) and [split, n_taps) (one piece when split == n_taps), as
   numpy's DOUBLE_dot forms 0.0 + ddot; on a CPU whose OpenBLAS takes
   another kernel, numpy's bits may differ and these stay.
   Each dot sums in the order of that ddot kernel, with n1 = n & -16 and
   n32 = n1 & -32 (dot = 0.0 when n1 = 0):
   - four 8-lane FMA accumulators over the 32-term blocks, for terms i,
     i + 8, i + 16 and i + 24;
   - each folded to 4 lanes, low half plus high half, and carried on as
     four 4-lane FMA accumulators over the 16-term block left, if any,
     for terms i, i + 4, i + 8 and i + 12;
   - ((a0 + a1) + a2) + a3, then lanes 0, 1 plus lanes 2, 3, then lane 0
     plus lane 1;
   - dot = fma(y[i], x[i], dot) for the terms from n1 on.
   Two paths give the same bits, picked per call by sdlab_simd: with AVX2
   and FMA each 8-lane accumulator is held as two 4-lane halves; else
   plain C with fma().  Windows are read with unaligned loads from values.
   Each path has its own exported symbol, so tests can compare them.
*/
typedef double dot_fn(const double *x, const double *y, long long n);

/* the portable path, lanes as arrays */
static double dot_c(const double *x, const double *y, long long n)
{
    long long n1 = n & -16, n32 = n1 & -32, i = 0;
    double a8[4][8] = {{0.0}}, a4[4][4], s[4], dot = 0.0;
    for (; i < n32; i += 32)
        for (int b = 0; b < 4; b++)
            for (int l = 0; l < 8; l++)
                a8[b][l] = fma(x[i + 8 * b + l], y[i + 8 * b + l], a8[b][l]);
    for (int b = 0; b < 4; b++)
        for (int l = 0; l < 4; l++)
            a4[b][l] = a8[b][l] + a8[b][l + 4];
    for (; i < n1; i += 16)
        for (int b = 0; b < 4; b++)
            for (int l = 0; l < 4; l++)
                a4[b][l] = fma(x[i + 4 * b + l], y[i + 4 * b + l], a4[b][l]);
    if (n1) {
        for (int l = 0; l < 4; l++)
            s[l] = ((a4[0][l] + a4[1][l]) + a4[2][l]) + a4[3][l];
        dot = (s[0] + s[2]) + (s[1] + s[3]);
    }
    for (; i < n; i++)
        dot = fma(y[i], x[i], dot);
    return dot;
}

static void correlate(dot_fn *dot, const double *values, long long start,
                      const double *taps, long long n_taps, long long split,
                      long long n_out, double *out, long long ostride)
{
    for (int p = 0; p < 2; p++) {
        long long a = p == 0 ? 0 : split, len = (p == 0 ? split : n_taps) - a;
        if (len <= 0)           /* split == n_taps: one piece */
            break;
        const double *x = values + start + a;
        for (long long j = 0; j < n_out; j++) {
            double d = dot(x + j, taps + a, len);
            out[j * ostride] = p == 0 ? 0.0 + d : out[j * ostride] + (0.0 + d);
        }
    }
}

#define CORRELATE_ARGS const double *values, long long start,             \
    const double *taps, long long n_taps, long long split, long long n_out, \
    double *out, long long ostride
#define CORRELATE(dot) correlate(dot, values, start, taps, n_taps, split, \
                                 n_out, out, ostride)

void sdlab_correlate_c(CORRELATE_ARGS)
{
    CORRELATE(dot_c);
}

#if defined(__x86_64__)
#include <immintrin.h>

#define AVX2 __attribute__((target("avx2,fma")))
#define UNROLL _Pragma("GCC unroll 4")  /* so the accumulators stay in registers */

static AVX2 double dot_avx2(const double *x, const double *y, long long n)
{
    long long n1 = n & -16, n32 = n1 & -32, i = 0;
    __m256d lo[4], hi[4], h[4];
    UNROLL
    for (int b = 0; b < 4; b++)
        lo[b] = hi[b] = _mm256_setzero_pd();
    for (; i < n32; i += 32)
        UNROLL
        for (int b = 0; b < 4; b++) {
            lo[b] = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 8 * b),
                                    _mm256_loadu_pd(y + i + 8 * b), lo[b]);
            hi[b] = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 8 * b + 4),
                                    _mm256_loadu_pd(y + i + 8 * b + 4), hi[b]);
        }
    UNROLL
    for (int b = 0; b < 4; b++)
        h[b] = _mm256_add_pd(lo[b], hi[b]);
    if (i < n1)
        UNROLL
        for (int b = 0; b < 4; b++)
            h[b] = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4 * b),
                                   _mm256_loadu_pd(y + i + 4 * b), h[b]);
    double dot = 0.0;
    if (n1) {
        __m256d s = _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(h[0], h[1]), h[2]),
                                  h[3]);
        __m128d q = _mm_add_pd(_mm256_castpd256_pd128(s),
                               _mm256_extractf128_pd(s, 1));
        dot = _mm_cvtsd_f64(q) + _mm_cvtsd_f64(_mm_unpackhi_pd(q, q));
    }
    for (; n1 < n; n1++)
        dot = fma(y[n1], x[n1], dot);
    return dot;
}

void sdlab_correlate_avx2(CORRELATE_ARGS)
{
    CORRELATE(dot_avx2);
}
#endif

/* 1 with AVX2 and FMA, else 0 */
int sdlab_simd(void)
{
#if defined(__x86_64__)
    if (__builtin_cpu_supports("fma") && __builtin_cpu_supports("avx2"))
        return 1;
#endif
    return 0;
}

void sdlab_correlate(CORRELATE_ARGS)
{
#if defined(__x86_64__)
    if (sdlab_simd() > 0) {
        CORRELATE(dot_avx2);
        return;
    }
#endif
    CORRELATE(dot_c);
}

/* The escapes of one region step: the (point, delta) pairs whose
   containment excess max(|u'| - u0, B2(u') - v', v' - B1(u')) is above
   tol, with (u', v') the image of (us[i], vs[i]) under deltas[j].  The
   excess is, operation for operation, what _kernels._excess computes in
   numpy, with NaNs propagated as np.maximum does, so a NaN is no escape.
   Returns the number of escapes and stores the largest escape excess in
   *top (-inf if there is none).  Unless rows is NULL, the first cap of
   them go into rows, in (point, delta) order, as the 56-byte records
   (lo + i, j, u, v, u', v', excess) of _kernels.VIOLATION.
   Two paths give the same count, picked per call by sdlab_simd: with
   AVX2 (which every AVX-512 CPU also has) the count runs branch-free over
   4 points at a time, with the plain loop's branches as lane masks; the
   plain loop takes the points left over, and all of them when rows are
   written.  Each path has its own exported symbol, so tests can compare
   them.

   Both paths first screen each point by the smallest and the largest
   delta, dlo and dhi, and skip its other deltas when neither end can
   leave a pair above tol.  Why that keeps every count and row:
   - For one point, w = fl(lam u), s = fl(w + v) and the branch sign sg
     are the same for every delta, so the exact image U = w + sg d,
     V = s + sg d is affine in d.
   - |U| - u0, -B1(-U) - V and V - B1(U) are convex in d, since B1 is
     concave (two concave quadratics with the same slope 1/2 at 0).  So
     the exact excess E(d) on [dlo, dhi] is at most max(E(dlo), E(dhi)).
   - With P = |w| + D (D = max |d|, so |U| <= P), |V| <= |s| + D and
     A = P^2 / (2 min(dH, dL)), each rounding of the computed excess
     (u' and v' once, B1's square, quotient and two sums, the final
     difference, and B1's slope times |u' - U|) adds at most eps times a
     multiple of P, |s|, A, C or u0, eps = 2^-53; summed, the computed
     excess is within 7.1 eps S of E(d) for
       S = |w| + |s| + D + u0 + C + P^2 / (2 min(dH, dL)).
     M = 2^10 eps S = 2^-43 S is 8 eps S with a safety factor of 128.
     Below the normal range each operation errs by at most 2^-1075 more,
     which the term 2^-1000 covers.
   - So a computed interior excess is at most E(d) + M <= max(computed
     ends) + 2M.  The test max(ends) + 2M <= tol rounds by under
     3 eps S, far inside the factor, so every skipped pair stays at or
     below tol and is no escape.
   - A NaN end, a NaN or infinite delta, point or S (computed as 4 S, so
     no step of an excess can overflow when it is finite) all make the
     test false, and the point runs through every delta.
   The Python _kernels._escapes stays unscreened, the reference for both.
*/
struct escape {
    long long point, delta;
    double u, v, u_next, v_next, excess;
};

#define ESCAPES_ARGS const double *us, const double *vs, long long n,       \
    const double *deltas, long long nd, double gamma, double lam, double u0, \
    double C, double dH, double dL, double tol, long long lo,               \
    struct escape *rows, long long cap, double *top
#define ESCAPES_PASS us, vs, n, deltas, nd, gamma, lam, u0, C, dH, dL, tol, \
    lo, rows, cap, top
#define ESCAPES(i) escapes(i, ESCAPES_PASS)

static double b1(double u, double C, double dH, double dL)
{
    return -(u * u) / (2.0 * (u <= 0.0 ? dH : dL)) + 0.5 * u + C;
}

static double nan_max(double a, double b)
{
    return (a >= b || isnan(a)) ? a : b;
}

static double excess(double u2, double v2, double u0, double C, double dH,
                     double dL)
{
    double under = -b1(-u2, C, dH, dL) - v2;
    double over = v2 - b1(u2, C, dH, dL);
    return nan_max(nan_max(fabs(u2) - u0, under), over);
}

/* the smallest and largest delta and D = max |delta|, NaN if a delta is */
static double delta_span(const double *deltas, long long nd, double *dlo,
                         double *dhi)
{
    double big = nd > 0 ? 0.0 : NAN;
    *dlo = *dhi = nd > 0 ? deltas[0] : NAN;
    for (long long j = 0; j < nd; j++) {
        *dlo = deltas[j] < *dlo ? deltas[j] : *dlo;
        *dhi = deltas[j] > *dhi ? deltas[j] : *dhi;
        big = nan_max(big, fabs(deltas[j]));
    }
    return big;
}

/* the screen's 2M for a point with w = fl(lam u) and s = fl(w + v) */
static double margin(double w, double s, double D, double u0, double C,
                     double h2)
{
    double p = fabs(w) + D;
    return 0x1p-44 * (4.0 * (p + fabs(s) + u0 + C + p * p / h2)) + 0x1p-999;
}

/* the plain loop over points i.. */
static long long escapes(long long i, ESCAPES_ARGS)
{
    double dlo, dhi, D = delta_span(deltas, nd, &dlo, &dhi);
    double h2 = 2.0 * fmin(dH, dL);
    long long count = 0;
    for (; i < n; i++) {
        double u = us[i], v = vs[i], w = lam * u, s = w + v;
        double sgn = u + gamma * v >= 0.0 ? -1.0 : 1.0;
        double ends = nan_max(excess(w + sgn * dlo, s + sgn * dlo, u0, C, dH, dL),
                              excess(w + sgn * dhi, s + sgn * dhi, u0, C, dH, dL));
        if (ends + margin(w, s, D, u0, C, h2) <= tol)
            continue;
        for (long long j = 0; j < nd; j++) {
            double u2 = w + sgn * deltas[j];
            double v2 = s + sgn * deltas[j];
            double e = excess(u2, v2, u0, C, dH, dL);
            if (e > tol) {
                if (count < cap && rows != NULL)
                    rows[count] = (struct escape){lo + i, j, u, v, u2, v2, e};
                *top = e > *top ? e : *top;
                count++;
            }
        }
    }
    return count;
}

long long sdlab_escapes_c(ESCAPES_ARGS)
{
    *top = -INFINITY;
    return ESCAPES(0);
}

#if defined(__x86_64__)
#define COUNT_ARGS const double *us, const double *vs, long long n,         \
    const double *deltas, long long nd, double gamma, double lam, double u0, \
    double C, double dH, double dL, double tol, double *top
#define COUNT(path) path(us, vs, n, deltas, nd, gamma, lam, u0, C, dH, dL, tol, \
    top)

typedef double v4d __attribute__((vector_size(32)));
typedef long long v4i __attribute__((vector_size(32)));

/* m ? a : b in each lane, m all ones where true */
#define PICK(m, a, b) ((v4d)(((v4i)(m) & (v4i)(a)) | (~(v4i)(m) & (v4i)(b))))
#define B1(x) (-((x) * (x)) / PICK((x) <= 0.0, h2, l2) + 0.5 * (x) + C)
#define NAN_MAX(a, b) PICK((a) == (a), PICK((a) >= (b), a, b), a)
#define ABS(x) ((v4d)((v4i)(x) & magnitude))
#define EXCESS(u2, v2) NAN_MAX(NAN_MAX(ABS(u2) - u0, -B1(-(u2)) - (v2)), \
                               (v2) - B1(u2))

/* the plain loop's count over points 0 .. (n & -4) - 1, 4 at a time, in
   generic vectors that gcc lowers to AVX2 compares and blends */
static AVX2 long long count_avx2(COUNT_ARGS)
{
    double dlo, dhi, D = delta_span(deltas, nd, &dlo, &dhi);
    const v4d zero = {0}, one = zero + 1.0, h2 = zero + 2.0 * dH,
              l2 = zero + 2.0 * dL, m2 = zero + 2.0 * fmin(dH, dL);
    const v4i magnitude = (v4i){0} + INT64_MAX;
    v4i hits = {0};
    v4d best = zero - INFINITY;
    for (long long i = 0; i + 4 <= n; i += 4) {
        v4d u, v;
        memcpy(&u, us + i, sizeof u);
        memcpy(&v, vs + i, sizeof v);
        v4d w = lam * u, s = w + v, sgn = PICK(u + gamma * v >= 0.0, -one, one);
        v4d ends = NAN_MAX(EXCESS(w + sgn * dlo, s + sgn * dlo),
                           EXCESS(w + sgn * dhi, s + sgn * dhi));
        v4d p = ABS(w) + D;
        v4d gap = 0x1p-44 * (4.0 * (p + ABS(s) + u0 + C + p * p / m2)) + 0x1p-999;
        v4i skip = ends + gap <= tol;
        if (skip[0] & skip[1] & skip[2] & skip[3])
            continue;
        for (long long j = 0; j < nd; j++) {
            v4d e = EXCESS(w + sgn * deltas[j], s + sgn * deltas[j]);
            v4i hit = e > tol;
            hits -= hit;
            best = PICK(hit & (e > best), e, best);
        }
    }
    for (int k = 0; k < 4; k++)
        *top = best[k] > *top ? best[k] : *top;
    return hits[0] + hits[1] + hits[2] + hits[3];
}

long long sdlab_escapes_avx2(ESCAPES_ARGS)
{
    *top = -INFINITY;
    return rows != NULL ? ESCAPES(0) : COUNT(count_avx2) + ESCAPES(n & -4);
}
#endif

long long sdlab_escapes(ESCAPES_ARGS)
{
#if defined(__x86_64__)
    if (sdlab_simd() > 0)
        return sdlab_escapes_avx2(ESCAPES_PASS);
#endif
    return sdlab_escapes_c(ESCAPES_PASS);
}
