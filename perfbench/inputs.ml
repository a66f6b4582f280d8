(* Seeded inputs. Every input of a run is a function of the seed; deptest
   only ever sees the generated source text. *)

module Corpus = Dt_workloads.Corpus
module Generator = Dt_workloads.Generator

(* the smallest unit: the start-up cost every invocation pays *)
let one_statement =
  "      PROGRAM ONE\n\
  \      DO 10 I = 1, 100\n\
  \        A(I+1) = A(I)\n\
  \   10 CONTINUE\n\
  \      END\n"

let with_newline s = if String.ends_with ~suffix:"\n" s then s else s ^ "\n"

(* the embedded corpus, one compilation unit per entry *)
let corpus = Array.of_list (List.map (fun (e : Corpus.entry) -> with_newline e.source) Corpus.all)

let stream seed salt = Random.State.make [| seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* oneshot-corpus: the whole corpus as one unit, routine order shuffled *)
let corpus_unit seed =
  let a = Array.copy corpus in
  shuffle (stream seed 1) a;
  String.concat "" (Array.to_list a)

(* Stratified draws: indices 0..n-1, each block of n a fresh seeded
   permutation. Every run then sees the same mix in every block, and
   only the order and the contents differ with the seed. *)
let permutations st n =
  let block = Array.init n Fun.id and pos = ref n in
  fun () ->
    if !pos = n then (
      shuffle st block;
      pos := 0);
    incr pos;
    block.(!pos - 1)

(* serve-cold: distinct triangular nests with a symbolic outer bound.
   1..24 statements gives units from 1 to ~400 reference pairs, on both
   sides of the ~256-pair sequential/parallel threshold. *)
let nest_config =
  { Generator.default with triangular = true; symbolic_hi = true }

let max_stmts = 24

let cold_programs seed n =
  let st = stream seed 2 in
  let stmts = permutations st max_stmts in
  Array.init n (fun i ->
      let p = Generator.program st nest_config ~stmts:(1 + stmts ()) in
      Dt_frontend.Emit.program { p with Dt_ir.Nest.name = Printf.sprintf "G%05d" i })

(* serve-warm: corpus units drawn in seeded order *)
let warm_draws seed = permutations (stream seed 3) (Array.length corpus)

(* which answered serve-cold nests the brute-force oracle checks *)
let oracle_sample seed ~answered ~k =
  let st = stream seed 4 in
  List.init (min k answered) (fun _ -> Random.State.int st answered)
  |> List.sort_uniq compare
