"""Bidirectional type checking.

Introductions check against a type, eliminations infer; the switch happens
at neutral heads via conversion.  Universes are cumulative (U n is a
subtype of U m for n <= m).  Tick applications are typed by strengthening
the head into the maximal residual context; forcing applications by
checking the head under a fresh clock binder over the forcing residual.

Definitions and data signatures live in a CheckState.  They are closed
terms, checked in the empty context: the clock constant k0 is
`syntax.K0`, no variable, so a definition is used in any context as it is.

A constructor's boundary pieces are ordinary terms, checked by the ordinary
rules (as cubicaltt checks a HIT constructor's boundary system; Coquand,
Huber and Mortberg, "On Higher Inductive Types in Cubical Type Theory",
LICS 2018): each is checked at the data type in the constructor's
telescope, with the constructors before it declared; overlapping pieces
must be convertible on each clause of the overlap; and an eliminator case
must be convertible, on each piece's face, with the eliminator applied to
the piece.

Types are checked through closures (Coquand, "An algorithm for
type-checking dependent types", SCP 1996): `infer` returns a term or a
`syntax.Closure`, and `check` takes either as the expected type.  An
application, projection, path, clock, tick or forcing application reads
the type of its head as the machine leaves it, a head and its environment
(`conversion._whnf_env`), and returns the codomain or later type pending
under that environment, extended by the argument or, for a tick, composed
with the weakening back from the residual context (`syntax.then`).  A
motive, the endpoints and lines of paths and compositions, and the types
of a telescope stay pending too, and `Context.term_type` leaves a
variable's type pending under the shift past the entries after it.
`syntax.closure_equal` finds a type equal to the one expected without
materialising either.  A closure is materialised only where a term must
exist: a context entry, a term built around it, an error's payload, the
form `whnf` gives, and a forcing application's later type that may
mention its tick.

Each instantiation of a signature's telescopes has one builder:
`_check_telescope` checks parameters or constructor arguments against
their telescope, each type pending on the values before it
(`_telescope_type`); `_rec_fn_type` gives a recursive argument's function
type, its arity telescope folded (`_pis`), pending on the parameters and
arguments; `_arity_types` materialises an arity telescope for a case's
induction hypotheses.  An eliminator is read in a case's context under
the shift past the case's binders.  A substitution is given the shape of
its scope, a context's `counts`, or a shape extended by `syntax.shape`.
"""

from .conversion import (
    conv, conv_tm, fuel_exhausted, whnf,
    _clam_n, _clock_under, _elim_con, _forall_n, _materialise, _rec_call,
    _whnf_env,
)
from .errors import (
    ArityMismatch, BaseBoundaryMismatch, BoundaryIncompatible,
    BoundaryNotCovering, CaseBoundaryMismatch, CaseMissing, CcttError,
    ClockMismatch, DiamondOutsideForcing, EndpointMismatch,
    ForwardConstructorReference, FuelExhausted, IncompatibleOverlap,
    MotiveMismatch, NonProperEntry, NotAFunction, NotALater, TickEscape,
    TubeMismatch, TypeMismatch, UnboundVariable,
)
from .interval import (
    FAnd, IVar, IZERO, IONE, face_entails, face_is_false, face_join,
    iv_vars,
)
from .syntax import (
    App, CApp, CForcedTick, CLOCK, CLam, ClockElim, Closure, Comp, Con,
    Context, DFix, EClock, EIVar, ETick, EVar, ForceApp, Forall, Fst, HComp,
    Hit, I1, IVAL, K0, K1, Lam, Later, PApp, PFix, PLam, Pair, PathT, Pi,
    Sigma, Snd, System, TERM, TICK, TickApp, TickLam, TickVar, TopRef,
    Trans, U, Var, ZERO, _POS, _shift_subst, _tick_vars, close, closure_equal,
    loose_bound, shape, strengthen, structural_equal, subst, then, weaken,
    weaken_iv,
)
from .ticks import (
    apply_mask, bind, extend, force, residual_mask, strengthen_term,
    weakening_subst,
)


class CheckState:
    """Mutable per-run state: fuel, definitions, and the append-only table
    of validated data signatures."""

    def __init__(self, max_steps=1_000_000):
        self.max_steps = max_steps
        self.steps = 0
        self.signatures = {}
        self.definitions = {}

    def step(self):
        self.steps += 1
        if self.steps > self.max_steps:
            fuel_exhausted(self)

    def signature(self, name):
        try:
            return self.signatures[name]
        except KeyError:
            raise UnboundVariable(f"no data type named {name}", name=name)

    def definition_body(self, name):
        entry = self.definitions.get(name)
        return entry[1] if entry else None

    def definition_type(self, name):
        entry = self.definitions.get(name)
        return entry[0] if entry else None

    def infer(self, ctx, t):
        """The type of t in ctx, for `conversion`, which the checker
        imports."""
        return infer(self, ctx, t)

    def add_definition(self, name, ty, body):
        check_is_type(self, Context(), ty)
        check(self, Context(), body, ty)
        self.definitions[name] = (ty, body)

    def add_signature(self, sig):
        check_hit_signature(self, sig)
        self.signatures[sig.name] = sig


# --------------------------------------------------------------------------
# Scope checks for interval expressions and faces
# --------------------------------------------------------------------------

def _check_iv(ctx, x):
    """x, an interval expression or a face, mentions only variables of
    ctx."""
    bound = ctx.counts[3]
    for ix in iv_vars(x):
        if ix >= bound:
            raise UnboundVariable(f"interval variable {ix} is not in scope")


def _check_clock(ctx, k):
    if k != K0 and not 0 <= k < ctx.counts[1]:
        raise ClockMismatch(f"clock {k} is not in scope")


# --------------------------------------------------------------------------
# Inference
# --------------------------------------------------------------------------

def infer(state, ctx, t):
    match t:
        case Var(ix):
            try:
                return ctx.term_type(ix)
            except IndexError:
                raise UnboundVariable(f"term variable {ix} is not in scope")

        case TopRef(name):
            ty = state.definition_type(name)
            if ty is None:
                raise UnboundVariable(f"no definition named {name}", name=name)
            return ty

        case U(n):
            return U(n + 1)

        case Pi(dom, cod) | Sigma(dom, cod):
            n1 = check_is_type(state, ctx, dom)
            n2 = check_is_type(state, ctx.push(EVar(dom)), cod)
            return U(max(n1, n2))

        case PathT(a, left, right):
            n = check_is_type(state, ctx, a)
            check(state, ctx, left, a)
            check(state, ctx, right, a)
            return U(n)

        case Forall(body):
            return U(check_is_type(state, ctx.push(EClock()), body))

        case Later(clock, body):
            _check_clock(ctx, clock)
            return U(check_is_type(state, ctx.push(ETick(clock)), body))

        case Hit(name, params):
            sig = state.signature(name)
            _check_hit_params(state, ctx, sig, params)
            return U(sig.level)

        case App(fn, arg):
            fty, env = _whnf_env(state, ctx, infer(state, ctx, fn))
            if not isinstance(fty, Pi):
                raise NotAFunction("application head is not a function",
                                   actual=_materialise(fty, env))
            check(state, ctx, arg, close(env, fty.dom))
            return _instance(fty.cod, env, ctx.counts, TERM, arg)

        case Fst(p):
            pty, env = _whnf_env(state, ctx, infer(state, ctx, p))
            if not isinstance(pty, Sigma):
                raise NotAFunction("projection from a non-pair",
                                   actual=_materialise(pty, env))
            return close(env, pty.fst)

        case Snd(p):
            pty, env = _whnf_env(state, ctx, infer(state, ctx, p))
            if not isinstance(pty, Sigma):
                raise NotAFunction("projection from a non-pair",
                                   actual=_materialise(pty, env))
            return _instance(pty.snd, env, ctx.counts, TERM, Fst(p))

        case PApp(fn, r):
            _check_iv(ctx, r)
            fty, env = _whnf_env(state, ctx, infer(state, ctx, fn))
            if not isinstance(fty, PathT):
                raise NotAFunction("path application head is not a path",
                                   actual=_materialise(fty, env))
            return close(env, fty.ty)

        case CApp(fn, k):
            _check_clock(ctx, k)
            fty, env = _whnf_env(state, ctx, infer(state, ctx, fn))
            if not isinstance(fty, Forall):
                raise NotAFunction(
                    "clock application head is not clock-quantified",
                    actual=_materialise(fty, env),
                )
            return _instance(fty.body, env, ctx.counts, CLOCK, k)

        case TickApp(fn, u):
            return _infer_tick_app(state, ctx, fn, u)

        case ForceApp(fn, k, u):
            return _infer_force_app(state, ctx, fn, k, u)

        case DFix(k, f):
            later_ty, _ = _fix_premise(state, ctx, k, f)
            return later_ty

        case PFix(k, f):
            _, a = _fix_premise(state, ctx, k, f)
            fw = weaken(f, K1)
            d = DFix(k, fw)
            return Later(k, PathT(
                weaken(a, K1), TickApp(d, TickVar(0)), App(fw, d)
            ))

        case Comp():
            return check_comp(state, ctx, t)

        case HComp(ty, face, tube, base):
            return _check_hcomp(state, ctx, ty, face, tube, base)

        case Trans(ty, face, base):
            return _check_trans(state, ctx, ty, face, base)

        case Con(name, label, params, args, recs, ivals):
            sig = state.signature(name)
            return check_constructor_app(state, ctx, sig, label, params,
                                         args, recs, ivals)

        case ClockElim(_, _, _, _, _, _):
            return check_clock_elim(state, ctx, t)

    raise TypeMismatch(
        f"cannot infer a type for {type(t).__name__}; an annotation is "
        "required", actual=t,
    )


def _instance(body, env, scope, sort, payload):
    """The type body, scoped under env's cod (None: a context of shape
    `scope`) and one innermost variable of `sort`, with that variable sent
    to `payload`: a closure, or body itself when it is closed, or when env
    is None and body does not mention the variable."""
    b = loose_bound(body)
    if b == ZERO or env is None and not b[_POS[sort]]:
        return body
    return Closure(body, bind(env, scope, sort, payload))


def check_is_type(state, ctx, t):
    """Check that t is a type; returns its universe level."""
    ty = whnf(state, ctx, infer(state, ctx, t))
    if isinstance(ty, U):
        return ty.level
    raise TypeMismatch("expected a type", actual=ty)


def _fix_premise(state, ctx, k, f):
    """Shared premise of dfix and pfix: f : (|> A) -> A on clock k.
    Returns the later-type and the clock-stripped result type A."""
    _check_clock(ctx, k)
    fty = whnf(state, ctx, infer(state, ctx, f))
    if not isinstance(fty, Pi):
        raise NotAFunction("fixed point of a non-function", actual=fty)
    dom = whnf(state, ctx, fty.dom)
    if not isinstance(dom, Later):
        raise NotALater("fixed point domain is not a later type",
                        actual=dom)
    if dom.clock != k:
        raise ClockMismatch(
            f"fixed point clock {k} does not match domain clock "
            f"{dom.clock}"
        )
    try:
        a = strengthen(fty.cod, TERM)
    except TickEscape:
        raise TypeMismatch("fixed point result type may not depend on the "
                           "argument") from None
    try:
        body = strengthen(dom.ty, TICK)
    except TickEscape:
        raise TypeMismatch("fixed point domain may not depend on the "
                           "tick") from None
    if not conv_tm(state, ctx, body, a):
        raise TypeMismatch("fixed point domain does not match its result",
                           expected=Later(k, weaken(a, K1)), actual=dom)
    return dom, a


def _infer_tick_app(state, ctx, fn, u):
    tvs = _tick_vars(u)
    if not tvs:
        raise DiamondOutsideForcing(
            "a simple tick application needs a tick variable"
        )
    some = next(iter(tvs))
    try:
        clock = ctx.tick_clock(some)
    except IndexError:
        raise UnboundVariable(f"tick variable {some} is not in scope")
    mask = residual_mask(ctx, u, clock, forcing=False)
    rctx = apply_mask(ctx, mask)
    fn_res = strengthen_term(ctx, mask, fn)
    lty, env = _whnf_env(state, rctx, infer(state, rctx, fn_res))
    if type(lty) is not Later:
        raise NotALater("tick application head is not a later type",
                        actual=_materialise(lty, env))
    # A mask keeps every clock, so the clock keeps its index.
    if _clock_under(env, lty.clock) != clock:
        raise ClockMismatch(
            "tick application head lives on a different clock"
        )
    # Under the head type's environment and back from the residual
    # context, with the later's tick sent to u.
    return Closure(lty.ty, bind(then(env, weakening_subst(ctx, mask)),
                                ctx.counts, TICK, u))


def _infer_force_app(state, ctx, fn, k, u):
    _check_clock(ctx, k)
    mask = residual_mask(ctx, u, k, forcing=True)
    rctx = apply_mask(ctx, mask)
    fn_res = strengthen_term(ctx.push(EClock()), mask + [True], fn)
    rctx_k = rctx.push(EClock())
    lty, env = _whnf_env(state, rctx_k, infer(state, rctx_k, fn_res))
    if type(lty) is not Later:
        raise NotALater("forcing application head is not a later type",
                        actual=_materialise(lty, env))
    if _clock_under(env, lty.clock) != 0:
        raise ClockMismatch(
            "forcing application head is not on the bound clock"
        )
    # Back from the residual context, with the bound clock sent to k and
    # the later's tick to the forcing tick (k, u): the forcing beta rule.
    # A type that mentions no tick stays under the head type's
    # environment; one that may mention the later's tick is materialised,
    # since the forcing tick turns a tick application on it into a forcing
    # one, abstracting the clock again.
    scope = ctx.counts
    back = bind(weakening_subst(ctx, mask), scope, CLOCK, k)
    if not loose_bound(lty.ty)[2]:
        return Closure(lty.ty, then(env, back))
    return Closure(_materialise(lty, env).ty,
                   bind(back, scope, TICK, CForcedTick(0, u)))


# --------------------------------------------------------------------------
# Checking
# --------------------------------------------------------------------------

# The terms `check` takes apart by the head of the expected type; any other
# is inferred and compared with it.
_INTRODUCTIONS = frozenset({Lam, Pair, PLam, CLam, TickLam, System, Con})


def check(state, ctx, t, expected):
    """Check t against `expected`, a term or a closure."""
    if type(t) not in _INTRODUCTIONS:
        got = infer(state, ctx, t)
        if not _subtype(state, ctx, got, expected):
            raise TypeMismatch("types do not match",
                               expected=whnf(state, ctx, expected),
                               actual=force(got))
        return
    ety = whnf(state, ctx, expected)
    match (t, ety):
        case (Lam(body), Pi(dom, cod)):
            check(state, ctx.push(EVar(dom)), body, cod)
            return

        case (Lam(_), _):
            raise TypeMismatch("function against a non-function type",
                               expected=ety, actual=t)

        case (Pair(fst, snd), Sigma(a, b)):
            check(state, ctx, fst, a)
            check(state, ctx, snd, _instance(b, None, ctx.counts, TERM, fst))
            return

        case (Pair(_, _), _):
            raise TypeMismatch("pair against a non-pair type",
                               expected=ety, actual=t)

        case (PLam(body), PathT(a, left, right)):
            _check_path_lam(state, ctx, body, a, left, right)
            return

        case (PLam(_), _):
            raise TypeMismatch("path abstraction against a non-path type",
                               expected=ety, actual=t)

        case (CLam(body), Forall(bty)):
            check(state, ctx.push(EClock()), body, bty)
            return

        case (CLam(_), _):
            raise TypeMismatch(
                "clock abstraction against an unquantified type",
                expected=ety, actual=t,
            )

        case (TickLam(clock, body), Later(clock2, bty)):
            if clock != clock2:
                raise ClockMismatch(
                    f"tick abstraction on clock {clock} against a later "
                    f"type on clock {clock2}"
                )
            check(state, ctx.push(ETick(clock)), body, bty)
            return

        case (TickLam(_, _), _):
            raise TypeMismatch("tick abstraction against a non-later type",
                               expected=ety, actual=t)

        case (System(parts), _):
            check_system(state, ctx, parts, ety)
            return

        case (Con(name, label, params, args, recs, ivals), Hit(n2, ep)):
            if name != n2:
                raise TypeMismatch("constructor of a different data type",
                                   expected=ety, actual=t)
            sig = state.signature(name)
            if not params and sig.params.types:
                params = ep  # elaborate the omitted parameters
            # Parameters equal to the expected type's are well formed, and
            # the type they give is the expected one.
            same = params is ep or structural_equal(params, ep)
            got = check_constructor_app(state, ctx, sig, label, params,
                                        args, recs, ivals, same)
            if not same and not conv(state, ctx, U(sig.level), got, ety):
                raise TypeMismatch("constructor parameters disagree",
                                   expected=ety, actual=got)
            return

        case _:
            got = infer(state, ctx, t)
            if not _subtype(state, ctx, got, ety):
                raise TypeMismatch("types do not match",
                                   expected=ety, actual=force(got))
            return


def _check_path_lam(state, ctx, body, a, left, right):
    ictx = ctx.push(EIVar())
    check(state, ictx, body, weaken(a, I1))
    at0 = _instance(body, None, ctx.counts, IVAL, IZERO)
    if not conv(state, ctx, a, at0, left):
        raise EndpointMismatch("left endpoint disagrees",
                               expected=left, actual=force(at0))
    at1 = _instance(body, None, ctx.counts, IVAL, IONE)
    if not conv(state, ctx, a, at1, right):
        raise EndpointMismatch("right endpoint disagrees",
                               expected=right, actual=force(at1))


def _subtype(state, ctx, a, b):
    """Cumulative subtyping: U n <= U m for n <= m, congruently under the
    usual type formers, conversion elsewhere.  a and b are terms or
    closures."""
    if closure_equal(a, b):
        return True
    a = whnf(state, ctx, a)
    b = whnf(state, ctx, b)
    match (a, b):
        case (U(n), U(m)):
            return n <= m
        case (Pi(d1, c1), Pi(d2, c2)) | (Sigma(d1, c1), Sigma(d2, c2)):
            if not conv(state, ctx, U(0), d1, d2):
                return False
            return _subtype(state, ctx.push(EVar(d1)), c1, c2)
        case (Forall(b1), Forall(b2)):
            return _subtype(state, ctx.push(EClock()), b1, b2)
        case (Later(k1, b1), Later(k2, b2)):
            return k1 == k2 and _subtype(state, ctx.push(ETick(k1)), b1, b2)
        case _:
            return conv(state, ctx, U(0), a, b)


# --------------------------------------------------------------------------
# Systems and composition
# --------------------------------------------------------------------------

def check_system(state, ctx, parts, ty):
    for phi, u in parts:
        _check_iv(ctx, phi)
        check(state, ctx.restrict(phi), u, ty)
    if clash := _disagreeing_overlap(state, ctx, parts, ty):
        i, j, overlap = clash
        raise IncompatibleOverlap("system parts disagree on their overlap",
                                  i=i, j=j, face=overlap)


def _disagreeing_overlap(state, ctx, parts, ty):
    """The first two parts (i, j, their overlap) of a system or a boundary
    that are neither equal terms nor convertible at ty on their overlap."""
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            (phi, t), (psi, u) = parts[i], parts[j]
            overlap = FAnd(phi, psi)
            # `conv` answers both tests first too, but most pairs of a
            # boundary pass one of them, and asking here builds no
            # restricted context for them.
            if not (face_is_false(overlap) or structural_equal(t, u)
                    or conv(state, ctx.restrict(overlap), ty, t, u)):
                return i, j, overlap


def check_comp(state, ctx, p):
    """Validate a composition p (a `Comp`); returns its type (the line at
    1)."""
    ictx = ctx.push(EIVar())
    check_is_type(state, ictx, p.ty)
    _check_iv(ctx, p.face)
    try:
        _check_tube(state, ictx, p.face, p.tube, p.ty)
    except TypeMismatch as exc:
        raise TubeMismatch(f"tube does not fit the line: {exc}") from exc
    scope = ctx.counts
    ty0 = _instance(p.ty, None, scope, IVAL, IZERO)
    check(state, ctx, p.base, ty0)
    tube0 = _instance(p.tube, None, scope, IVAL, IZERO)
    if not conv(state, ctx.restrict(p.face), ty0, p.base, tube0):
        raise BaseBoundaryMismatch(
            "base disagrees with the tube at 0 on the extent",
            face=p.face,
        )
    return _instance(p.ty, None, scope, IVAL, IONE)


def _check_tube(state, ictx, face, tube, line):
    face_w = weaken_iv(face, I1)
    rctx = ictx.restrict(face_w)
    if isinstance(tube, System):
        covering = face_join(phi for phi, _ in tube.parts)
        if not face_entails(face_w, covering):
            raise TubeMismatch("tube system does not cover the extent",
                               face=face)
    if face_is_false(face):
        return  # empty extent: any tube is vacuously fine
    check(state, rctx, tube, line)


def _check_hcomp(state, ctx, ty, face, tube, base):
    check_is_type(state, ctx, ty)
    _check_iv(ctx, face)
    ictx = ctx.push(EIVar())
    try:
        _check_tube(state, ictx, face, tube, weaken(ty, I1))
    except TypeMismatch as exc:
        raise TubeMismatch(f"tube does not fit the type: {exc}") from exc
    check(state, ctx, base, ty)
    tube0 = _instance(tube, None, ctx.counts, IVAL, IZERO)
    if not conv(state, ctx.restrict(face), ty, base, tube0):
        raise BaseBoundaryMismatch(
            "base disagrees with the tube at 0 on the extent", face=face,
        )
    return ty


def _check_trans(state, ctx, ty, face, base):
    ictx = ctx.push(EIVar())
    check_is_type(state, ictx, ty)
    _check_iv(ctx, face)
    scope = ctx.counts
    # The line must be constant on the extent: equal to its start, ty at
    # 0 moved back under the line variable.
    start = Closure(ty, subst(scope, ivals=(IZERO,), fresh=I1))
    if not conv(state, ictx.restrict(weaken_iv(face, I1)), U(0), ty, start):
        raise TubeMismatch("transport line is not constant on its extent",
                           face=face)
    check(state, ctx, base, _instance(ty, None, scope, IVAL, IZERO))
    return _instance(ty, None, scope, IVAL, IONE)


# --------------------------------------------------------------------------
# HIT signatures
# --------------------------------------------------------------------------

def _check_telescope(state, ctx, outer, values, types):
    """Check values, terms in ctx, against the types of a signature
    telescope, each instantiated at `outer` (the entries before the
    telescope) and the values before it, pending on it as a closure."""
    scope = ctx.counts
    for j, ty in enumerate(types):
        check(state, ctx, values[j],
              _telescope_type(ty, scope, (*outer, *values[:j])))


def _telescope_type(ty, scope, values):
    """A telescope's type, scoped in the entries before it, at `values`
    for them (terms in a context of shape `scope`, outermost first): a
    closure, or ty itself when it mentions none of them."""
    if loose_bound(ty)[0]:
        return Closure(ty, extend(None, scope, values))
    return ty


def _check_hit_params(state, ctx, sig, params):
    if len(params) != len(sig.params.types):
        raise ArityMismatch(
            f"{sig.name} expects {len(sig.params.types)} parameters, "
            f"got {len(params)}"
        )
    _check_telescope(state, ctx, (), params, sig.params.types)


def check_hit_signature(state, sig):
    """Validate a data signature: telescopes, interval counts, faces, and
    per-constructor boundaries (labels, typing, covering, compatibility)."""
    if state.signatures.get(sig.name) is not None:
        raise NonProperEntry(f"data type {sig.name} is already declared")
    delta_ctx = _check_entry_types(state, Context(), sig.params.types,
                                   "parameter ", sig.name)

    declaring = _Declaring(sig)
    for idx, ctor in enumerate(sig.constructors):
        cctx = _check_entry_types(state, delta_ctx, ctor.args.types,
                                  "argument ", ctor.label)
        for k, arity in enumerate(ctor.rec_arities):
            _check_entry_types(state, cctx, arity.types,
                               f"recursive arity {k}.", ctor.label)
        if ctor.ivar_count < 0:
            raise NonProperEntry("negative interval arity")
        for ix in iv_vars(ctor.face):
            if ix >= ctor.ivar_count:
                raise NonProperEntry(
                    f"face of {ctor.label} mentions interval variable {ix} "
                    f"outside its {ctor.ivar_count} binders"
                )
        declaring.current = idx
        if ctor.boundary or not face_is_false(ctor.face):
            _check_boundary(state, declaring, ctor, cctx)
    return True


def _check_entry_types(state, ctx, types, kind, owner):
    """Check that each of a telescope's types is a type in ctx extended by
    the ones before it; returns ctx extended by all of them.  A failure is
    a NonProperEntry naming the entry: its kind, position and owner."""
    for pos, ty in enumerate(types):
        try:
            check_is_type(state, ctx, ty)
        except FuelExhausted:
            raise
        except CcttError as exc:
            raise NonProperEntry(
                f"{kind}{pos} of {owner} is not a type: {exc}"
            ) from exc
        ctx = ctx.push(EVar(ty))
    return ctx


class _Declaring:
    """A data signature while the boundary of its constructor number
    `current` is checked: that constructor and the ones after it are not
    declared yet."""

    def __init__(self, sig):
        self.sig = sig
        self.name = sig.name
        self.params = sig.params
        self.level = sig.level
        self.constructors = sig.constructors
        self.current = 0

    def constructor(self, label):
        k = self.sig.index_of(label)
        if k >= self.current:
            raise ForwardConstructorReference(
                f"boundary of {self.constructors[self.current].label} refers"
                f" to {label}, which is not declared before it"
            )
        return self.constructors[k]


def _check_boundary(state, declaring, ctor, cctx):
    """Type each boundary piece at the data type, in cctx (parameters,
    constructor arguments) extended by the recursive arguments
    (their types read, not renamed) and the interval binders, with the
    constructors before this one declared; then check that the pieces
    cover the face and agree where they overlap: are equal terms, or else
    convertible with each overlap clause's endpoints pending on them."""
    bctx, hit = _boundary_context(declaring.sig, ctor, cctx)
    state.signatures[declaring.name] = declaring
    try:
        for phi, piece in ctor.boundary:
            if any(ix >= ctor.ivar_count for ix in iv_vars(phi)):
                raise NonProperEntry(
                    f"boundary face of {ctor.label} is out of scope")
            check(state, bctx, piece, hit)
        covering = face_join(phi for phi, _ in ctor.boundary)
        if not face_entails(ctor.face, covering):
            raise BoundaryNotCovering(
                f"boundary of {ctor.label} does not cover its face",
                face=ctor.face)
        if clash := _disagreeing_overlap(state, bctx, ctor.boundary, hit):
            i, j, overlap = clash
            raise BoundaryIncompatible(
                f"boundary pieces {i} and {j} of {ctor.label} disagree on"
                " their overlap", face=overlap)
    finally:
        del state.signatures[declaring.name]


def _boundary_context(sig, ctor, cctx):
    """cctx extended by ctor's recursive arguments and interval binders,
    and the data type at the parameters there."""
    d, a = len(sig.params.types), len(ctor.args.types)
    r = len(ctor.rec_arities)
    bctx = cctx
    for k, arity in enumerate(ctor.rec_arities):
        scope = [Var(k + d + a - 1 - q) for q in range(d + a)]
        bctx = bctx.push(EVar(force(_rec_fn_type(
            bctx.counts, sig, arity, scope[:d], scope[d:]))))
    for _ in range(ctor.ivar_count):
        bctx = bctx.push(EIVar())
    return bctx, Hit(sig.name,
                     tuple(Var(r + d + a - 1 - q) for q in range(d)))


# --------------------------------------------------------------------------
# Constructor applications
# --------------------------------------------------------------------------

def check_constructor_app(state, ctx, sig, label, params, args, recs,
                          ivals, params_known=False):
    """The type of a constructor application; parameters known to be well
    formed (`params_known`) are not checked again."""
    try:
        ctor = sig.constructor(label)
    except KeyError:
        raise UnboundVariable(f"{sig.name} has no constructor {label}")
    if len(args) != len(ctor.args.types):
        raise ArityMismatch(
            f"{label} expects {len(ctor.args.types)} arguments, got "
            f"{len(args)}"
        )
    if len(recs) != len(ctor.rec_arities):
        raise ArityMismatch(
            f"{label} expects {len(ctor.rec_arities)} recursive arguments, "
            f"got {len(recs)}"
        )
    if len(ivals) != ctor.ivar_count:
        raise ArityMismatch(
            f"{label} expects {ctor.ivar_count} interval arguments, got "
            f"{len(ivals)}"
        )
    if not params_known:
        _check_hit_params(state, ctx, sig, params)
    _check_telescope(state, ctx, params, args, ctor.args.types)
    for k, arity in enumerate(ctor.rec_arities):
        check(state, ctx, recs[k],
              _rec_fn_type(ctx.counts, sig, arity, params, args))
    for r in ivals:
        _check_iv(ctx, r)
    return Hit(sig.name, tuple(params))


def _rec_fn_type(scope, sig, arity, params, args):
    """The type of a recursive argument: a function from the arity
    telescope, instantiated at params and args (terms in a context of shape
    `scope`), into the data type.  Unless the arity is empty, it is a
    closure: the function type in the signature's scope (parameters,
    arguments), pending on params and args."""
    if not arity.types:
        return Hit(sig.name, tuple(params))
    # The function type in the signature's scope (parameters, arguments).
    d, m = len(params), len(arity.types)
    outer = d + len(args)
    ret = Hit(sig.name, tuple(Var(m + outer - 1 - q) for q in range(d)))
    return Closure(_pis(arity.types, ret),
                   extend(None, scope, (*params, *args)))


def _arity_types(scope, arity, outer):
    """The types of an arity telescope, instantiated at `outer` (the
    parameters and arguments, terms in a context of shape `scope`), each in
    scope extended by the ones before it, materialised for a context
    entry."""
    env = extend(None, scope, outer)
    return [force(Closure(ty, env.under((q, 0, 0, 0))))
            for q, ty in enumerate(arity.types)]


def _pis(doms, cod):
    """The function type from the telescope doms into cod."""
    for dom in reversed(doms):
        cod = Pi(dom, cod)
    return cod


# --------------------------------------------------------------------------
# Induction under clocks
# --------------------------------------------------------------------------

def _capp_n(t, n):
    for k in range(n - 1, -1, -1):
        t = CApp(t, k)
    return t


def check_clock_elim(state, ctx, elim):
    sig = state.signature(elim.name)
    n = elim.n
    d = len(sig.params.types)
    if len(elim.params) != d:
        raise ArityMismatch(
            f"eliminator of {sig.name} expects {d} parameters"
        )

    # Parameters: each is clock-abstracted n times over its telescope type.
    # Under the n clocks, the parameters are applied to them.
    clocks = (0, n, 0, 0)
    ctx_n = shape(ctx.counts, clocks)
    hit_params_n = tuple(_capp_n(weaken(q, clocks), n) for q in elim.params)
    for p, ty in enumerate(sig.params.types):
        body = _telescope_type(ty, ctx_n, hit_params_n[:p])
        check(state, ctx, elim.params[p],
              _forall_n(n, force(body)) if n else body)

    scrut_ty = _forall_n(n, Hit(sig.name, hit_params_n))
    check(state, ctx, elim.arg, scrut_ty)

    try:
        check_is_type(state, ctx.push(EVar(scrut_ty)), elim.motive)
    except FuelExhausted:
        raise
    except CcttError as exc:
        raise MotiveMismatch(f"motive is not a type: {exc}") from exc

    labels = {case.label for case in elim.cases}
    for ctor in sig.constructors:
        if ctor.label not in labels:
            raise CaseMissing(f"no case for constructor {ctor.label}")
    for case in elim.cases:
        try:
            ctor = sig.constructor(case.label)
        except KeyError:
            raise CaseMissing(
                f"{sig.name} has no constructor {case.label}"
            )
        if (case.n_args != len(ctor.args.types)
                or case.n_recs != len(ctor.rec_arities)
                or case.n_ivars != ctor.ivar_count):
            raise ArityMismatch(
                f"case for {case.label} binds the wrong number of variables"
            )
        if n > 0 and any(len(a.types) for a in ctor.rec_arities):
            raise MotiveMismatch(
                f"constructor {case.label} takes higher-order recursive "
                "arguments; induction under clocks over it is not supported"
            )
        _check_case(state, ctx, sig, ctor, elim, case)

    return _instance(elim.motive, None, ctx.counts, TERM, elim.arg)


def _check_case(state, ctx, sig, ctor, elim, case):
    n = elim.n
    a = len(ctor.args.types)
    r = len(ctor.rec_arities)
    v = ctor.ivar_count

    clocks = (0, n, 0, 0)
    cur = ctx
    # gamma binders.
    for j in range(a):
        terms = [_capp_n(weaken(p, (j, n, 0, 0)), n) for p in elim.params]
        terms += [_capp_n(Var(j - 1 - i), n) for i in range(j)]
        body = _telescope_type(ctor.args.types[j], shape(cur.counts, clocks),
                               terms)
        cur = cur.push(EVar(_forall_n(n, force(body))))

    # x binders (clock-abstracted recursive values).
    for k, arity in enumerate(ctor.rec_arities):
        shift = a + k
        params_n = [_capp_n(weaken(p, (shift, n, 0, 0)), n)
                    for p in elim.params]
        gammas_n = [_capp_n(Var(a - 1 - j + k), n) for j in range(a)]
        cur = cur.push(EVar(_forall_n(n, force(_rec_fn_type(
            shape(cur.counts, clocks), sig, arity, params_n, gammas_n)))))

    # y binders (induction hypotheses).
    for k, arity in enumerate(ctor.rec_arities):
        m = len(arity.types)
        shift = a + r + k
        params_w = [weaken(p, (shift, 0, 0, 0)) for p in elim.params]
        gammas = [Var(a - 1 - j + r + k) for j in range(a)]
        tys = _arity_types(cur.counts, arity, params_w + gammas)
        if n > 0:
            scrut = Var(r - 1)
        else:
            scrut = Var(r - 1 + m)
            for s in range(m):
                scrut = App(scrut, Var(m - 1 - s))
        # The motive at scrut, moved past the binders before it.
        motive = Closure(elim.motive, subst(ctx.counts, terms=(scrut,),
                                            fresh=(shift + m, 0, 0, 0)))
        cur = cur.push(EVar(_pis(tys, force(motive))))

    case_ctx = cur
    for _ in range(v):
        case_ctx = case_ctx.push(EIVar())

    binders = case.binders
    con = _case_con(elim, sig, ctor, binders)
    expected = Closure(elim.motive, subst(ctx.counts,
                                          terms=(_clam_n(n, con),),
                                          fresh=binders))
    check(state, case_ctx, case.body, expected)
    if not ctor.boundary:
        return

    # On each piece's face, the case body, its induction hypotheses the
    # eliminator's own calls, must agree with the eliminator applied to
    # the piece.  The eliminator is read in the case context under the
    # shift past the case's binders.
    scope, past = case_ctx.counts, _shift_subst(binders, ZERO)
    body = Closure(*_elim_con(state, case_ctx, elim, past, con, None))
    sigma = subst(shape(scope, clocks),
                  terms=con.params + con.args + con.recs, ivals=con.ivals)
    for phi, piece in ctor.boundary:
        at_piece = _rec_call(elim, past, scope,
                             _clam_n(n, force(Closure(piece, sigma))), 0)
        if not conv(state, case_ctx.restrict(phi), expected, body,
                    at_piece):
            raise CaseBoundaryMismatch(
                f"case for {case.label} disagrees with its boundary",
                label=case.label, face=phi,
            )


def _case_con(elim, sig, ctor, binders):
    """The constructor a case stands for, in its case context (`binders`
    past the eliminator's) under the n clocks: its arguments and recursive
    arguments are the case's binders applied to the clocks."""
    n = elim.n
    a = len(ctor.args.types)
    r = len(ctor.rec_arities)
    v = ctor.ivar_count
    params = tuple(_capp_n(weaken(p, shape(binders, (0, n, 0, 0))), n)
                   for p in elim.params)
    args = tuple(
        _capp_n(Var(2 * r + a - 1 - j), n) for j in range(a)
    )
    recs = tuple(_capp_n(Var(2 * r - 1 - k), n) for k in range(r))
    ivals = tuple(IVar(v - 1 - q) for q in range(v))
    return Con(sig.name, ctor.label, params, args, recs, ivals)
