(** Counterexample minimization.

    {!ddmin} is Zeller–Hildebrandt delta debugging over lists: given a
    failing input ([test input = true]) it returns a sublist that still
    fails, trying chunk subsets first and chunk complements second.
    Every candidate is validated by [test] — for scripts that means a
    full deterministic replay, so nothing "probably still failing" is
    ever kept.

    {!script} minimizes a hunt counterexample in three passes — fault plan,
    then adversary choices, then coin flips — each pass holding the
    others fixed.  Choice/flip sequences are first shortened by prefix
    halving (a dropped suffix falls back to the replayer's
    deterministic tail) because full ddmin over tens of thousands of
    schedule entries would replay far too many candidates; ddmin then
    polishes sequences that have become small.  The result is never
    longer than the input and still fails ("failure preserved" means
    {e some} property violation, not necessarily the original string —
    the final replay's failure is stored in the returned script). *)

val ddmin : test:('a list -> bool) -> 'a list -> 'a list
(** Precondition: [test input = true] (otherwise the input is returned
    unchanged, except that [test [] = true] yields [[]]). *)

val script : scenario:Scenario.t -> Counterexample.t -> Counterexample.t
(** Precondition: the counterexample replays to a failure under
    [scenario] (hunt verifies this before shrinking).
    @raise Invalid_argument on a check counterexample. *)
