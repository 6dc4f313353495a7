(** Static access analysis over the checked MiniMove AST (DESIGN.md §15):
    infers, per function, an over-approximation of the global-storage
    locations its execution may read and write, abstracted over the
    function's formal parameters, and specializes it against a
    transaction's concrete arguments into a
    {!Blockstm_kernel.Access_spec.t}.

    Soundness — the specialized spec covers every dynamically recorded
    read/write descriptor of any execution — is checked across the
    600-program differential corpus in [test/test_access.ml]. Run the
    analysis on a {e checked} program (see {!Check.check}); on an unchecked
    one, unbound names degrade conservatively rather than erroring. *)

(** One function-level access entry. The resource name is always literal in
    the AST, so precision only varies in the address component. *)
type entry =
  | Exact_addr of int * string  (** Concrete address, literal resource. *)
  | Param_addr of int * string
      (** Address is the [i]-th formal parameter (0-based). *)
  | Wildcard of string  (** Unknown address, known resource. *)
  | Unknown  (** Recursion: nothing is known about the callee. *)

type fspec = { spec_reads : entry list; spec_writes : entry list }

val infer : Ast.program -> (string * fspec) list
(** Specs for every defined function, in declaration order. Entries are
    normalized: deduplicated, with entries subsumed by a wider one dropped
    ([Unknown] subsumes all, a resource wildcard subsumes that resource's
    exact/param entries). *)

val infer_func : Ast.program -> string -> fspec option
(** The spec of one function; [None] if it is not defined. *)

val specialize :
  fspec ->
  args:Mv_value.Value.t list ->
  Mv_value.Loc.t Blockstm_kernel.Access_spec.t
(** Close a function spec over a call's concrete arguments (the
    transaction's [main] arguments): parameter entries whose argument is an
    address literal become [Exact]; any other binding degrades to the
    resource [Wildcard]. *)

val namespace : Mv_value.Loc.t -> string
(** The location's resource name — the namespace function to pass to
    {!Blockstm_kernel.Access_spec.conflict} and the lane coordinator's
    [loc_namespace]. *)

val pp_entry : Format.formatter -> entry -> unit
val pp_fspec : Format.formatter -> fspec -> unit
