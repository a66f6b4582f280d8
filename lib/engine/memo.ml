type 'v t = {
  mutex : Mutex.t;
  table : (string, 'v) Hashtbl.t;
  order : string Queue.t;  (* insertion order, drives FIFO eviction *)
  capacity : int option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(size = 256) ?capacity () =
  {
    mutex = Mutex.create ();
    table = Hashtbl.create size;
    order = Queue.create ();
    capacity;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find_opt t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some _ as r ->
          t.hits <- t.hits + 1;
          r
      | None ->
          t.misses <- t.misses + 1;
          None)

let over_capacity t =
  match t.capacity with
  | Some c -> Hashtbl.length t.table > c
  | None -> false

let add t k v =
  locked t (fun () ->
      if not (Hashtbl.mem t.table k) then Queue.push k t.order;
      Hashtbl.replace t.table k v;
      (* FIFO: the queue holds exactly the live keys in insertion order,
         so popping always names a resident entry *)
      while over_capacity t do
        let victim = Queue.pop t.order in
        Hashtbl.remove t.table victim;
        t.evictions <- t.evictions + 1
      done)

let length t = locked t (fun () -> Hashtbl.length t.table)
let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let evictions t = locked t (fun () -> t.evictions)

let hit_rate t =
  locked t (fun () ->
      let n = t.hits + t.misses in
      if n = 0 then 0. else float_of_int t.hits /. float_of_int n)

let reset_stats t =
  locked t (fun () ->
      t.hits <- 0;
      t.misses <- 0)
