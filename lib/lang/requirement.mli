(** Compile front door of the requirement meta-language: parsing,
    canonical cache keys, and the wizard's bytecode form. *)

type compile_error = { line : int; col : int; message : string }

val pp_compile_error : Format.formatter -> compile_error -> unit

(** Canonical key for caching compiled programs by source text: the
    token stream rendered back out (whitespace runs collapsed, comments
    and blank lines dropped, reserved words case-folded, numbers as the
    shortest re-lexable decimal), so trivially different spellings of
    one requirement share a cache entry.  Two sources with the same key
    select identically — they can differ only in the source line numbers
    reported by fault diagnostics.  Written in one scan of the source
    into one buffer.  A source that does not lex keys as itself behind
    a NUL byte, which the lexer rejects, so it never shares a key with
    one that does. *)
val cache_key : string -> string

(** The canonical requirement source — the string {!cache_key} returns,
    under its own name.  Canonicalization is idempotent and the result
    re-lexes to the same token stream, so a federation root can forward
    the canonical form to regional wizards and every compile cache in
    the tree derives the same key ([cache_key (canonical s) = cache_key
    s]) no matter which spelling it received. *)
val canonical : string -> string

(** Lex and parse a requirement text. *)
val compile : string -> (Ast.program, compile_error) result

(** A requirement in the wizard's hot-path form: bytecode plus the
    preallocated interpreter state selection reuses across servers, the
    statement-major {!Bytecode.sweep} plan when the program fits that
    shape, and whether it assigns a [user_preferred_hostN]
    ({!Bytecode.sets_preferred}): without that and without [order_by],
    a selection scan stops at its cut. *)
type fast = {
  prog : Bytecode.program;
  state : Bytecode.state;
  sweep : Bytecode.sweep option;
  prefers : bool;
}

(** Parse and compile to bytecode in one step. *)
val compile_fast : string -> (fast, compile_error) result

(** Free variables that no binding can supply — typo candidates. *)
val unbound_variables : Ast.program -> string list
