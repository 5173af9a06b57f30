"""Cephes special functions and the Student-t tail on Python floats, with `math` only.

`ndtr`, `ndtri`, `psi` and `lgam` are ports of the Cephes routines behind
`scipy.special.ndtr`, `ndtri`, `digamma` and `gammaln` (`ndtr`/`erf`/`erfc`,
`ndtri`, `psi` and `lgam`; Moshier 1989): the same coefficient tables, the
same Horner order, the same branches and the same exp/log/sqrt calls, so they
return the same bits. `psi` on [1, 2] is Boost's `digamma_imp_1_2` rational,
as in scipy's copy of Cephes. `t_sf` is the upper tail of Student's t with an
integer number of degrees of freedom, from the incomplete beta function's
continued fractions and log(Gamma(df/2 + 1/2) / Gamma(df/2)), a difference of
two `lgam` values below df = 20 and of two Stirling series above. scipy computes
that tail with Boost's incomplete beta, so no port is bit-identical; `t_sf` is
within a relative 2e-13 of the exact value for df <= 5,000 (checked at 40
digits). Importing this module costs nothing next to the 0.3 s of `scipy.special`.
"""

from __future__ import annotations

import math

_MAXLOG = 7.09782712893383996843e2  # log(largest double)
_MACHEP = 1.11022302462515654042e-16  # 2**-53
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# erfc(x) = exp(-x^2) P(x) / Q(x) on 1 <= x < 8, and R / S on x >= 8.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# erf(x) = x T(x^2) / U(x^2) on |x| <= 1.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)

# ndtri: |p - 0.5| <= 3/8, then z = sqrt(-2 log p) in [2, 8) and [8, 64].
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


# psi: Boost's rational on [1, 2], digamma(x) = g * (Y + P(x - 1) / Q(x - 1)) with g = x - root,
# and the asymptotic series log(x) - 1/(2x) - z A(z), z = 1/x^2, above 10.
_PSI_Y = 0.99558162689208984375  # the float32 constant 0.99558162689208984f
_PSI_ROOT1 = 1569415565.0 / 1073741824.0  # the positive root in three parts
_PSI_ROOT2 = (381566830.0 / 1073741824.0) / 1073741824.0
_PSI_ROOT3 = 0.9016312093258695918615325266959189453125e-19
_PSI_P = (-0.0020713321167745952, -0.045251321448739056, -0.28919126444774784,
          -0.65031853770896507, -0.32555031186804491, 0.25479851061131551)
_PSI_Q = (-0.55789841321675513e-6, 0.0021284987017821144, 0.054151797245674225,
          0.43593529692665969, 1.4606242909763515, 2.0767117023730469, 1.0)
_PSI_A = (8.33333333333333333333e-2, -2.10927960927960927961e-2, 7.57575757575757575758e-3,
          -4.16666666666666666667e-3, 3.96825396825396825397e-3, -8.33333333333333333333e-3,
          8.33333333333333333333e-2)
_EULER = 0.5772156649015329

# lgam: x B(x) / C(x) on [2, 3) (C has an implied leading 1), Stirling's A series above 13.
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner's rule, highest power first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    """`_polevl` with an implied leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(a: float) -> float:
    x = -a if a < 0.0 else a
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0.0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        y = z * _polevl(x, _ERFC_P) / _p1evl(x, _ERFC_Q)
    else:
        y = z * _polevl(x, _ERFC_R) / _p1evl(x, _ERFC_S)
    if a < 0.0:
        y = 2.0 - y
    return y


def ndtr(x: float) -> float:
    """Standard normal CDF Phi(x); equals `scipy.special.ndtr` to the bit."""
    x = float(x)
    if math.isnan(x):
        return math.nan
    x *= math.sqrt(0.5)
    z = abs(x)
    if z < math.sqrt(0.5):
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y


def ndtri(p: float) -> float:
    """Standard normal quantile Phi^-1(p); equals `scipy.special.ndtri` to the bit."""
    y = float(p)
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    negate = True
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if negate else x


def psi(x: float) -> float:
    """Digamma, the derivative of log Gamma, for x > 0; equals `scipy.special.digamma`'s bits."""
    x = float(x)
    if x <= 0.0:
        raise ValueError("psi takes x > 0")
    y = 0.0
    if x <= 10.0 and x == math.floor(x):
        for i in range(1, int(x)):
            y += 1.0 / i
        return y - _EULER
    if x < 1.0:
        y -= 1.0 / x
        x += 1.0
    elif x < 10.0:
        while x > 2.0:
            x -= 1.0
            y += 1.0 / x
    if 1.0 <= x <= 2.0:
        g = x - _PSI_ROOT1
        g -= _PSI_ROOT2
        g -= _PSI_ROOT3
        r = _polevl(x - 1.0, _PSI_P) / _polevl(x - 1.0, _PSI_Q)
        return y + (g * _PSI_Y + g * r)
    if x < 1.0e17:
        z = 1.0 / (x * x)
        return y + (math.log(x) - 0.5 / x - z * _polevl(z, _PSI_A))
    return y + (math.log(x) - 0.5 / x)


def lgam(x: float) -> float:
    """log Gamma(x) for x > 0; equals `scipy.special.gammaln` to the bit."""
    x = float(x)
    if x <= 0.0:
        raise ValueError("lgam takes x > 0")
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _polevl(x, _LGAM_B) / _p1evl(x, _LGAM_C)
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


def _incbeta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) * a * B(a, b) / (x^a (1-x)^b), modified Lentz.

    Converges fast for x < (a + 1) / (a + b + 2).
    """
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _MACHEP:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)) to a small absolute error for every a > 0.

    Below a = 10 it is a difference of two `lgam` values; from a = 10 on, of
    two Stirling series, since the rounding of two large log-gammas grows with a.
    """
    if a < 10.0:
        return lgam(a + 0.5) - lgam(a)

    def series(x: float) -> float:  # log Gamma(x) - ((x - 1/2) log x - x + log(2 pi) / 2)
        r = 1.0 / (x * x)
        return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / x

    return 0.5 * math.log(a) + (a * math.log1p(0.5 / a) - 0.5) + series(a + 0.5) - series(a)


def t_sf(t: float, df: int) -> float:
    """Upper tail P(T > t) of Student's t with integer df >= 1 degrees of freedom.

    For t > 0 it is 0.5 * I_z(df/2, 1/2) with z = df / (df + t^2), and t < 0
    is one minus the tail at -t. I_z comes from whichever of the continued
    fractions of I_z(a, 1/2) and of 1 - I_z(a, 1/2) = I_{1-z}(1/2, a)
    converges fast at z; log z and log(1 - z) are log1p's of t^2/df and
    df/t^2, so the tail keeps its relative accuracy far out.
    """
    t = float(t)
    df = int(df)
    if df < 1:
        raise ValueError("df must be >= 1")
    if math.isnan(t):
        return math.nan
    if t < 0.0:
        return 1.0 - t_sf(-t, df)
    t2 = t * t
    if t2 == 0.0:
        return 0.5
    a = 0.5 * df
    log_z = -math.log1p(t2 / df)
    log_1mz = -math.log1p(df / t2)
    # z^a (1 - z)^(1/2) / B(a, 1/2)
    scale = math.exp(a * log_z + 0.5 * log_1mz + _log_gamma_ratio(a) - 0.5 * math.log(math.pi))
    if t2 * (df + 2) > 3 * df:  # z < (a + 1) / (a + 5/2)
        return 0.5 * scale / a * _incbeta_cf(a, 0.5, math.exp(log_z))
    return 0.5 - scale * _incbeta_cf(0.5, a, math.exp(log_1mz))
