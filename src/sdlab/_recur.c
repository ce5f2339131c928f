/* The double-loop recursion of _kernels._recur and the trajectory row
   formatter of _kernels._format_rows, in C.

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

   Each row is formatted on the stack and copied into buf, so the output
   is exactly the rows, with no terminating NUL.  Returns the number of
   bytes written, or -1 if the rows do not fit in cap bytes.
*/
static int put_num(char *p, size_t room, double x)
{
    return isnan(x) ? snprintf(p, room, "nan") : snprintf(p, room, "%.17g", x);
}

long long sdlab_format_rows(long long n0, const double *f, const long long *q,
                            const double *u, const double *v, long long count,
                            char *buf, long long cap)
{
    char row[160];
    long long pos = 0;
    for (long long i = 0; i < count; i++) {
        int k;
        if (isnan(f[i]) || isnan(u[i]) || isnan(v[i])) {
            k = snprintf(row, sizeof row, "%lld,", n0 + i + 1);
            k += put_num(row + k, sizeof row - k, f[i]);
            k += snprintf(row + k, sizeof row - k, ",%lld,", q[i]);
            k += put_num(row + k, sizeof row - k, u[i]);
            row[k++] = ',';
            k += put_num(row + k, sizeof row - k, v[i]);
            row[k++] = '\n';
        } else {
            k = snprintf(row, sizeof row, "%lld,%.17g,%lld,%.17g,%.17g\n",
                         n0 + i + 1, f[i], q[i], u[i], v[i]);
        }
        if (k > cap - pos)
            return -1;
        memcpy(buf + pos, row, (size_t)k);
        pos += k;
    }
    return pos;
}
