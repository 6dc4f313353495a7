(** Static checks for MiniMove programs, run at compile time like a real
    VM's bytecode verifier: unbound variables, unknown functions, arity
    mismatches, duplicate definitions/parameters/fields, unreachable code
    after [return]/[abort], and the presence of a [main] entry point. *)

exception Check_error of string

val builtins : (string * int) list
(** Builtin functions available to every script: name and arity
    ([to_addr], [addr_of], [min], [max]). *)

val check : ?require_main:bool -> Ast.program -> unit
(** @raise Check_error describing the first problem found. *)
