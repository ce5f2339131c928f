/* The three loops of _kernels in C: the double-loop recursion of
   _kernels._recur, the trajectory row formatter of _kernels._format_rows
   and the one-step containment excess of _kernels._excess.

   sdlab_recur is a line-for-line port: the same operations in the same
   order, so with -ffp-contract=off (no fused multiply-add) every state is
   bit-identical to the Python reference.  f == NULL means the constant
   input beta; q_out == NULL means "do not record".  The caller guarantees
   that f and the three output arrays hold at least n_steps doubles.

   Returns the 0-based step at which |u| > ubound or |v| > vbound (a NaN
   state fails the same test), or -1 if all n_steps stayed bounded, and
   stores the largest |v| seen up to and including that step in *vmax_out.
*/
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

long long sdlab_recur(double lam1, double lam2, double gamma, int kind,
                      double tau, const double *f, double beta,
                      long long n_steps, double ubound, double vbound,
                      double *q_out, double *u_out, double *v_out,
                      double *vmax_out)
{
    int trilevel = kind == 1;
    double u = 0.0, v = 0.0, vmax = 0.0;
    for (long long i = 0; i < n_steps; i++) {
        double s = u + gamma * v;
        double q;
        if (trilevel && (-tau < s && s < tau))
            q = 0.0;
        else if (s >= 0.0)
            q = 1.0;
        else
            q = -1.0;
        double w = lam1 * u + ((f == NULL ? beta : f[i]) - q);
        v = w + lam2 * v;
        u = w;
        if (q_out != NULL) {
            q_out[i] = q;
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

/* Trajectory rows n0+1 .. n0+count as "%lld,%.17g,%lld,%.17g,%.17g\n", the
   text Python's % operator gives for (n, f, q, u, v), except that a NaN
   prints as "nan" whatever its sign bit (glibc would print "-nan").

   Normal doubles with 1e-16 <= |x| < 1e17 are printed without snprintf:
   with |x| = m 2^e and X = floor(log10 |x|), the 17 significant digits are
   D = m 5^k 2^(e+k), k = 16 - X, rounded half to even in 128-bit integers,
   the exact %.17g rounding.  snprintf is only the fallback: for zero,
   subnormals, infinities, the rest of the range and no __int128.

   Each row is formatted on the stack and copied into buf, so the output
   is exactly the rows, with no terminating NUL.  Returns the number of
   bytes written, or -1 if the rows do not fit in cap bytes.
*/
static char *put_int(char *p, long long n)
{
    char tmp[20], *t = tmp + sizeof tmp;
    unsigned long long a = n < 0 ? 0ULL - (unsigned long long)n
                                 : (unsigned long long)n;
    do
        *--t = (char)('0' + a % 10);
    while (a /= 10);
    if (n < 0)
        *p++ = '-';
    memcpy(p, t, (size_t)(tmp + sizeof tmp - t));
    return p + (tmp + sizeof tmp - t);
}

#ifdef __SIZEOF_INT128__
static const uint64_t pow5[16] = {1, 5, 25, 125, 625, 3125, 15625, 78125,
    390625, 1953125, 9765625, 48828125, 244140625, 1220703125, 6103515625ULL,
    30517578125ULL};

/* |x| = d 10^(X-16) rounded to 17 digits, 10^16 <= d < 10^17; 0 when x is
   outside the fast range */
static int digits17(double x, uint64_t *d, int *X)
{
    const unsigned __int128 e16 = 10000000000000000ULL, e17 = 10 * e16;
    uint64_t bits, m;
    memcpy(&bits, &x, sizeof bits);
    int be = (int)(bits >> 52 & 0x7ff);
    if (be == 0 || be == 0x7ff)
        return 0;
    m = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
    /* floor((be - 1023) log10 2): X itself or X - 1 */
    int x10 = ((be - 1023) * 78913) >> 18;
    for (; x10 >= -16 && x10 <= 16; x10++) {
        int k = 16 - x10, s = 1075 - be - k;        /* x 10^k = P / 2^s */
        unsigned __int128 P = (unsigned __int128)m * pow5[k & 15], D;
        for (int j = k >> 4; j > 0; j--)
            P *= 152587890625ULL;                   /* 5^16 */
        if (s <= 0) {
            D = P << -s;
        } else {
            unsigned __int128 half = (unsigned __int128)1 << (s - 1);
            D = P >> s;
            P -= D << s;
            if (P > half || (P == half && (D & 1)))
                D++;
        }
        if (D <= e17) {
            *d = (uint64_t)(D == e17 ? e16 : D);
            *X = x10 + (D == e17);
            return 1;
        }
    }
    return 0;
}

/* d 10^(X-16) in %.17g form: fixed when -4 <= X < 17, trailing zeros cut */
static char *put_digits(char *p, uint64_t d, int X)
{
    char dig[17];
    int n = 17, fixed = X >= -4 && X < 17, lead = fixed ? X + 1 : 1;
    int from = lead > 0 ? lead : 0, a = X < 0 ? -X : X;
    for (int i = 16; i >= 0; i--, d /= 10)
        dig[i] = (char)('0' + d % 10);
    while (dig[n - 1] == '0')
        n--;
    if (lead > 0) {                       /* integer digits, zeros kept */
        memcpy(p, dig, (size_t)lead);
        p += lead;
        if (n > lead)
            *p++ = '.';
    } else {                              /* 0.000ddd */
        memcpy(p, "0.0000", (size_t)(1 - X));
        p += 1 - X;
    }
    if (n > from) {
        memcpy(p, dig + from, (size_t)(n - from));
        p += n - from;
    }
    if (!fixed) {                         /* |X| <= 17 on the fast path */
        *p++ = 'e';
        *p++ = X < 0 ? '-' : '+';
        *p++ = (char)('0' + a / 10);
        *p++ = (char)('0' + a % 10);
    }
    return p;
}
#endif

static char *put_num(char *p, double x)
{
    if (isnan(x)) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
#ifdef __SIZEOF_INT128__
    uint64_t d;
    int X;
    if (digits17(x, &d, &X)) {
        if (x < 0)
            *p++ = '-';
        return put_digits(p, d, X);
    }
#endif
    return p + snprintf(p, 32, "%.17g", x);
}

long long sdlab_format_rows(long long n0, const double *f, const long long *q,
                            const double *u, const double *v, long long count,
                            char *buf, long long cap)
{
    char row[160];
    long long pos = 0;
    for (long long i = 0; i < count; i++) {
        char *p = put_int(row, n0 + i + 1);
        *p++ = ',';
        p = put_num(p, f[i]);
        *p++ = ',';
        p = put_int(p, q[i]);
        *p++ = ',';
        p = put_num(p, u[i]);
        *p++ = ',';
        p = put_num(p, v[i]);
        *p++ = '\n';
        long long k = p - row;
        if (k > cap - pos)
            return -1;
        memcpy(buf + pos, row, (size_t)k);
        pos += k;
    }
    return pos;
}

/* The containment excess of one region step for every (point, delta)
   pair, into the row-major (n, nd) array out: max(|u'| - u0, B2(u') - v',
   v' - B1(u')) with (u', v') the image of (us[i], vs[i]) under deltas[j].
   Operation for operation what _kernels._excess does in numpy, with NaNs
   propagated as np.maximum does.
*/
static double b1(double u, double C, double dH, double dL)
{
    return -(u * u) / (2.0 * (u <= 0.0 ? dH : dL)) + 0.5 * u + C;
}

static double nan_max(double a, double b)
{
    return (a >= b || isnan(a)) ? a : b;
}

void sdlab_excess(const double *us, const double *vs, long long n,
                  const double *deltas, long long nd, double gamma, double lam,
                  double u0, double C, double dH, double dL, double *out)
{
    for (long long i = 0; i < n; i++) {
        double u = us[i], v = vs[i], w = lam * u;
        double sgn = u + gamma * v >= 0.0 ? -1.0 : 1.0;
        for (long long j = 0; j < nd; j++) {
            double u2 = w + sgn * deltas[j];
            double v2 = w + v + sgn * deltas[j];
            double under = -b1(-u2, C, dH, dL) - v2;
            double over = v2 - b1(u2, C, dH, dL);
            out[i * nd + j] = nan_max(nan_max(fabs(u2) - u0, under), over);
        }
    }
}
