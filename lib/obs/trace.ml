type verdict = Independent | Dependent | Inconclusive

type event =
  | Pair_start of {
      array : string;
      src_stmt : int;
      snk_stmt : int;
      site : int;
    }
  | Partitioned of {
      dims : int;
      nonlinear : int;
      separable : int;
      coupled_groups : int;
    }
  | Group_start of { positions : int list }
  | Pass of int
  | Test of {
      kind : Test_kind.t;
      subscript : string;
      verdict : verdict;
      reason : string;
    }
  | Constraint of { index : string; constr : string; note : string }
  | Verdict of { independent : bool; reason : string }
  | Note of string

type Span.args += Step of event

type step = { depth : int; event : event; ts_ns : int64; dur_ns : int64 }

let steps ?routine (spans : Span.span array) =
  let n = Array.length spans in
  let kind i = spans.(i).Span.kind and parent i = spans.(i).Span.parent in
  let rec depth i =
    if i < 0 then 0
    else
      match kind i with
      | Span.Pair | Span.Delta -> 1 + depth (parent i)
      | _ -> depth (parent i)
  in
  let rec owner i =
    if i < 0 then -1
    else
      match kind i with
      | Span.Analyze | Span.Shard -> i
      | _ -> owner (parent i)
  in
  let routines = List.filter (fun a -> owner a = a) (List.init n Fun.id) in
  (* a worker domain of a parallel run has no Analyze ancestor: its
     pairs belong to the run whose interval contains them *)
  let routine_of i =
    let t = spans.(i).Span.t0_ns in
    let within a = spans.(a).Span.t0_ns <= t && t <= spans.(a).Span.t1_ns in
    match owner (parent i) with
    | -1 -> Option.value (List.find_opt within routines) ~default:(-1)
    | r -> r
  in
  (* an opener is recorded just before the region it opens and lasts
     until that region closes *)
  let opens i = i + 1 < n && List.mem (kind (i + 1)) [ Span.Pair; Span.Delta ] in
  let dur i = function
    | (Pair_start _ | Group_start _) when opens i ->
        Int64.sub spans.(i + 1).Span.t1_ns spans.(i).Span.t0_ns
    | _ -> 0L
  in
  (* each domain runs its pairs one at a time, so a pair's subtree is
     its Pair_start and everything its buffer records up to the next
     one; [groups] is newest first *)
  let groups = ref [] in
  for i = 0 to n - 1 do
    match (kind i, !groups) with
    | Span.Explain (Step event), gs ->
        let s = spans.(i) in
        let step =
          { depth = depth s.Span.parent; event; ts_ns = s.Span.t0_ns;
            dur_ns = dur i event }
        in
        groups :=
          (match (event, gs) with
          | Pair_start { site; _ }, _ ->
              ((routine_of i, site), s.Span.domain, [ step ]) :: gs
          | _, (key, d, g) :: rest when d = s.Span.domain ->
              (key, d, step :: g) :: rest
          | _ -> ((routine_of i, -1), s.Span.domain, [ step ]) :: gs)
    | _ -> ()
  done;
  let keep = Option.map (List.nth routines) routine in
  List.rev !groups
  |> List.filter (fun ((r, _), _, _) -> keep = None || keep = Some r)
  |> List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b)
  |> List.concat_map (fun (_, _, g) -> List.rev g)

(* ------------------------------------------------------------------ *)
(* rendering                                                           *)

let verdict_name = function
  | Independent -> "independent"
  | Dependent -> "dependent"
  | Inconclusive -> "inconclusive"

let pp_event ppf = function
  | Pair_start { array; src_stmt; snk_stmt; _ } ->
      Format.fprintf ppf "pair %s S%d -> S%d" array src_stmt snk_stmt
  | Partitioned { dims; nonlinear; separable; coupled_groups } ->
      Format.fprintf ppf
        "partition: %d subscript position(s), %d nonlinear, %d separable, %d \
         coupled group(s)"
        dims nonlinear separable coupled_groups
  | Group_start { positions } ->
      Format.fprintf ppf "coupled group at position(s) [%s]"
        (String.concat " " (List.map string_of_int positions))
  | Pass n -> Format.fprintf ppf "delta pass %d" n
  | Test { kind; subscript; verdict; reason } ->
      Format.fprintf ppf "%s %s: %s — %s" (Test_kind.name kind) subscript
        (verdict_name verdict) reason
  | Constraint { index; constr; note } ->
      Format.fprintf ppf "constraint on %s: %s%s" index constr
        (if note = "" then "" else " (" ^ note ^ ")")
  | Verdict { independent; reason } ->
      Format.fprintf ppf "verdict: %s — %s"
        (if independent then "INDEPENDENT" else "dependent")
        reason
  | Note s -> Format.pp_print_string ppf s

let pp_tree ?routine ppf spans =
  List.iter
    (fun s ->
      Format.fprintf ppf "%s%a@." (String.make (2 * s.depth) ' ') pp_event
        s.event)
    (steps ?routine spans)

(* ------------------------------------------------------------------ *)
(* JSONL export                                                        *)

let event_to_json ~seq ~depth ?(ts_ns = 0L) ?(dur_ns = 0L) ev =
  let base ty fields =
    Json.Obj
      (("seq", Json.Int seq) :: ("depth", Json.Int depth)
      :: ("type", Json.String ty)
      :: ("ts_ns", Json.Int (Int64.to_int ts_ns))
      :: ("dur_ns", Json.Int (Int64.to_int dur_ns))
      :: fields)
  in
  match ev with
  | Pair_start { array; src_stmt; snk_stmt; site } ->
      base "pair_start"
        [
          ("array", Json.String array);
          ("src_stmt", Json.Int src_stmt);
          ("snk_stmt", Json.Int snk_stmt);
          ("site", Json.Int site);
        ]
  | Partitioned { dims; nonlinear; separable; coupled_groups } ->
      base "partitioned"
        [
          ("dims", Json.Int dims);
          ("nonlinear", Json.Int nonlinear);
          ("separable", Json.Int separable);
          ("coupled_groups", Json.Int coupled_groups);
        ]
  | Group_start { positions } ->
      base "group_start"
        [ ("positions", Json.List (List.map (fun p -> Json.Int p) positions)) ]
  | Pass n -> base "pass" [ ("n", Json.Int n) ]
  | Test { kind; subscript; verdict; reason } ->
      base "test"
        [
          ("kind", Json.String (Test_kind.slug kind));
          ("subscript", Json.String subscript);
          ("verdict", Json.String (verdict_name verdict));
          ("reason", Json.String reason);
        ]
  | Constraint { index; constr; note } ->
      base "constraint"
        [
          ("index", Json.String index);
          ("constr", Json.String constr);
          ("note", Json.String note);
        ]
  | Verdict { independent; reason } ->
      base "verdict"
        [
          ("independent", Json.Bool independent);
          ("reason", Json.String reason);
        ]
  | Note s -> base "note" [ ("text", Json.String s) ]

let to_jsonl spans =
  let steps = steps spans in
  let buf = Buffer.create 4096 in
  (* timestamps are relative to the earliest step, so the artifact is
     stable to read and diff across runs *)
  let t0 =
    List.fold_left (fun t s -> min t s.ts_ns) Int64.max_int steps
  in
  List.iteri
    (fun seq s ->
      Buffer.add_string buf
        (Json.to_string
           (event_to_json ~seq ~depth:s.depth
              ~ts_ns:(Int64.sub s.ts_ns t0) ~dur_ns:s.dur_ns s.event));
      Buffer.add_char buf '\n')
    steps;
  Buffer.contents buf
