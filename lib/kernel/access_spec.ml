(** Static access specifications: a per-transaction over-approximation of
    the locations it may read and write, produced before execution (e.g. by
    the MiniMove analysis in [Blockstm_minimove.Access], or directly by a
    workload generator that knows its transactions' footprints).

    A spec is {e sound} when the dynamic read set of every execution of the
    transaction is covered by [reads] and the dynamic write (and delta) set
    by [writes] — each accessed location must match some entry. Precision is
    graded per entry: [Exact] pins a single location, [Wildcard] covers
    every location of one namespace (a resource name for MiniMove locations,
    see {!conflict}), and [Unknown] covers everything. Estimate seeding and
    lane planning only derive optimizations from the precise end of that
    scale; imprecise entries degrade soundly to the paper's optimistic
    behavior. *)

type 'loc entry =
  | Exact of 'loc  (** Exactly this location. *)
  | Wildcard of string
      (** Any location in the named namespace (MiniMove: resource name). *)
  | Unknown  (** Any location at all. *)

type 'loc t = { reads : 'loc entry list; writes : 'loc entry list }

let is_exact = function Exact _ -> true | Wildcard _ | Unknown -> false

(** Every read and write entry is [Exact] — the transaction's footprint is
    fully known before execution. *)
let all_exact t = List.for_all is_exact t.reads && List.for_all is_exact t.writes

let exact_locs entries =
  List.filter_map (function Exact l -> Some l | _ -> None) entries

(** [Some locs] iff every write entry is [Exact] — the precondition for
    seeding ESTIMATE markers (a wildcard write cannot be turned into a
    finite marker set). *)
let exact_writes t =
  if List.for_all is_exact t.writes then
    Some (Array.of_list (exact_locs t.writes))
  else None

(** [(exact, wildcard, unknown)] entry counts over reads and writes
    combined — the precision profile printed by analysis tools. *)
let precision t =
  List.fold_left
    (fun (e, w, u) -> function
      | Exact _ -> (e + 1, w, u)
      | Wildcard _ -> (e, w + 1, u)
      | Unknown -> (e, w, u + 1))
    (0, 0, 0) (t.reads @ t.writes)

(** May the two entries denote a common location? [namespace] maps a
    location to its namespace so a [Wildcard] can be compared against an
    [Exact] entry; when absent, wildcards conservatively overlap
    everything. *)
let entries_overlap ~equal ?namespace a b =
  match (a, b) with
  | Unknown, _ | _, Unknown -> true
  | Exact x, Exact y -> equal x y
  | Wildcard r, Wildcard s -> String.equal r s
  | Wildcard r, Exact l | Exact l, Wildcard r -> (
      match namespace with None -> true | Some ns -> String.equal (ns l) r)

let lists_overlap ~equal ?namespace xs ys =
  List.exists (fun a -> List.exists (entries_overlap ~equal ?namespace a) ys) xs

(** Two specs conflict when one's possible writes overlap the other's
    possible reads or writes (the classic RAW/WAR/WAW test). Read-read
    sharing is not a conflict. Sound on sound specs: [not (conflict a b)]
    implies the two transactions commute. *)
let conflict ~equal ?namespace a b =
  lists_overlap ~equal ?namespace a.writes b.reads
  || lists_overlap ~equal ?namespace a.writes b.writes
  || lists_overlap ~equal ?namespace a.reads b.writes

(** Does [loc] match some entry of [entries]? The soundness predicate
    checked by the differential test suite. *)
let covers ~equal ?namespace entries loc =
  List.exists
    (function
      | Exact l -> equal l loc
      | Wildcard r -> (
          match namespace with
          | None -> true
          | Some ns -> String.equal (ns loc) r)
      | Unknown -> true)
    entries

let pp_entry pp_loc ppf = function
  | Exact l -> pp_loc ppf l
  | Wildcard r -> Fmt.pf ppf "%s/*" r
  | Unknown -> Fmt.string ppf "?"

let pp pp_loc ppf t =
  Fmt.pf ppf "@[reads {%a} writes {%a}@]"
    (Fmt.list ~sep:Fmt.comma (pp_entry pp_loc))
    t.reads
    (Fmt.list ~sep:Fmt.comma (pp_entry pp_loc))
    t.writes
