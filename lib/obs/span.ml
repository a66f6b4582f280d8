type args = ..

type kind =
  | Analyze
  | Enumerate
  | Test_phase
  | Orient
  | Pair
  | Partition
  | Test of Test_kind.t
  | Delta
  | Delta_pass
  | Banerjee
  | Merge
  | Parse
  | Worker
  | Task
  | Queue_wait
  | Shard
  | Steal
  | Request
  | Explain of args

let kind_name = function
  | Analyze -> "analyze"
  | Enumerate -> "enumerate"
  | Test_phase -> "test-phase"
  | Orient -> "orient"
  | Pair -> "pair"
  | Partition -> "partition"
  | Test k -> "test:" ^ Test_kind.slug k
  | Delta -> "delta"
  | Delta_pass -> "delta-pass"
  | Banerjee -> "banerjee"
  | Merge -> "merge"
  | Parse -> "parse"
  | Worker -> "worker"
  | Task -> "task"
  | Queue_wait -> "queue-wait"
  | Shard -> "shard"
  | Steal -> "steal"
  | Request -> "request"
  | Explain _ -> "explain"

type span = {
  kind : kind;
  domain : int;
  parent : int;
  t0_ns : int64;
  t1_ns : int64;
  minor_words : float;
  major_words : float;
}

let dur_ns s = Int64.sub s.t1_ns s.t0_ns

(* ------------------------------------------------------------------ *)
(* per-domain buffer: an append-only array of cells plus the stack of
   open spans. Exactly one domain ever writes a given buffer, so the
   cells need no synchronization — only the registry in [profiler]
   below is shared. *)

type cell = {
  ckind : kind;
  cparent : int;  (* slot in this buffer, -1 for a root span *)
  ct0 : int64;
  mutable ct1 : int64;  (* 0 while the span is open *)
  mutable cminor : float;
  mutable cmajor : float;
}

type t = {
  bdomain : int;
  bgc : bool;
  bexplain : bool;
  mutable cells : cell array;
  mutable len : int;
  mutable stack : int list;  (* open slots, innermost first *)
}

let dummy_cell =
  { ckind = Pair; cparent = -1; ct0 = 0L; ct1 = 0L; cminor = 0.; cmajor = 0. }

let create ~gc ~explain domain =
  { bdomain = domain; bgc = gc; bexplain = explain;
    cells = Array.make 64 dummy_cell; len = 0; stack = [] }

let push b c =
  let n = Array.length b.cells in
  if b.len = n then begin
    let bigger = Array.make (2 * n) dummy_cell in
    Array.blit b.cells 0 bigger 0 n;
    b.cells <- bigger
  end;
  b.cells.(b.len) <- c;
  b.len <- b.len + 1

let gc_words b =
  if b.bgc then
    let s = Gc.quick_stat () in
    (s.Gc.minor_words, s.Gc.major_words)
  else (0., 0.)

let parent_slot b = match b.stack with [] -> -1 | p :: _ -> p

let enter b k =
  let slot = b.len in
  let minor, major = gc_words b in
  push b
    {
      ckind = k;
      cparent = parent_slot b;
      ct0 = Clock.now_ns ();
      ct1 = 0L;
      cminor = minor;
      cmajor = major;
    };
  b.stack <- slot :: b.stack;
  slot

let exit_ b slot =
  let c = b.cells.(slot) in
  c.ct1 <- Clock.now_ns ();
  (if b.bgc then begin
     let minor, major = gc_words b in
     c.cminor <- minor -. c.cminor;
     c.cmajor <- major -. c.cmajor
   end);
  (* LIFO in the normal case; a non-top exit (possible only on unusual
     exception paths) drops the mismatched opens *)
  match b.stack with
  | s :: tl when s = slot -> b.stack <- tl
  | st -> b.stack <- List.filter (fun s -> s <> slot) st

let record b k ~t0_ns ~t1_ns =
  push b
    {
      ckind = k;
      cparent = parent_slot b;
      ct0 = t0_ns;
      ct1 = t1_ns;
      cminor = 0.;
      cmajor = 0.;
    }

let explaining = function Some b -> b.bexplain | None -> false

let explain b ev =
  match b with
  | Some b when b.bexplain ->
      let t = Clock.now_ns () in
      record b (Explain ev) ~t0_ns:t ~t1_ns:t
  | _ -> ()

let with_ b k f =
  match b with
  | None -> f ()
  | Some b ->
      let slot = enter b k in
      Fun.protect ~finally:(fun () -> exit_ b slot) f

(* ------------------------------------------------------------------ *)
(* profiler: the registry of per-domain buffers and the deterministic
   merge *)

type profiler = {
  pgc : bool;
  pexplain : bool;
  lock : Mutex.t;
  mutable bufs : t list;  (* unordered; sorted by domain id at dump *)
}

let profiler ?(gc = false) ?(explain = false) () =
  { pgc = gc; pexplain = explain; lock = Mutex.create (); bufs = [] }

let buffer p ~domain =
  Mutex.lock p.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock p.lock)
    (fun () ->
      match List.find_opt (fun b -> b.bdomain = domain) p.bufs with
      | Some b -> b
      | None ->
          let b = create ~gc:p.pgc ~explain:p.pexplain domain in
          p.bufs <- b :: p.bufs;
          b)

let buffers p =
  Mutex.lock p.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock p.lock)
    (fun () -> List.sort (fun a b -> compare a.bdomain b.bdomain) p.bufs)

let spans p =
  let bufs = buffers p in
  (* pass 1: assign merged indices to the closed cells, buffer by buffer
     in domain-id order — the merge is deterministic because each
     buffer's cells are already in that domain's append order *)
  let maps =
    List.map
      (fun b ->
        let map = Array.make b.len (-1) in
        (b, map))
      bufs
  in
  let count = ref 0 in
  List.iter
    (fun (b, map) ->
      for i = 0 to b.len - 1 do
        if b.cells.(i).ct1 <> 0L then begin
          map.(i) <- !count;
          incr count
        end
      done)
    maps;
  let out = Array.make !count
      { kind = Pair; domain = 0; parent = -1; t0_ns = 0L; t1_ns = 0L;
        minor_words = 0.; major_words = 0. }
  in
  List.iter
    (fun (b, map) ->
      (* an unclosed (dropped) parent re-parents its children to the
         nearest closed ancestor *)
      let rec resolve slot =
        if slot < 0 then -1
        else if map.(slot) >= 0 then map.(slot)
        else resolve b.cells.(slot).cparent
      in
      for i = 0 to b.len - 1 do
        if map.(i) >= 0 then begin
          let c = b.cells.(i) in
          out.(map.(i)) <-
            {
              kind = c.ckind;
              domain = b.bdomain;
              parent = resolve c.cparent;
              t0_ns = c.ct0;
              t1_ns = c.ct1;
              minor_words = c.cminor;
              major_words = c.cmajor;
            }
        end
      done)
    maps;
  out
